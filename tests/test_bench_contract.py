"""The calls the benchmark makes give the output the benchmark recorded: every
lib-session op of two groups, run through bench/session.py, and every CLI op
of cli-small and chartab-cyclo, run through quasik.cli.main.

An API change that the lib-session child relies on (lambda_desc, cent_group,
v_sigma, kernel, ...) fails here instead of only as a failed benchmark run.
Nothing under bench/ is written.
"""

from __future__ import annotations

import sys
from pathlib import Path

import quasik
import quasik.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
GROUPS = ("symmetric:3", "dihedral:4")


def test_lib_session_ops_match_the_recorded_outputs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import session
    import workloads

    assert Path(session.__file__).parent == BENCH
    expected = workloads.load_expected()
    ops = [op for op in workloads.WORKLOADS["lib-session"]() if op.group in GROUPS]
    assert len(ops) == 132
    groups = {}
    for op in ops:
        if op.group not in groups:
            # as session.main builds them: the group and its class representatives
            G = quasik.build_group(op.group)
            table = [[G.mul(a, b) for b in range(G.order)] for a in range(G.order)]
            groups[op.group] = (G, workloads.class_reps_of(table))
        out = session.run_op(*groups[op.group], op.call)
        assert workloads.check(op, 0, out, b"", expected) is None, op.key


def test_cli_ops_match_the_recorded_outputs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    expected = workloads.load_expected()
    ops = workloads.WORKLOADS["cli-small"]() + workloads.WORKLOADS["chartab-cyclo"]()
    assert len(ops) == 35
    for op in ops:
        code = quasik.cli.main(list(op.argv))
        captured = capsys.readouterr()
        problem = workloads.check(op, code, captured.out.encode(), captured.err.encode(), expected)
        assert problem is None, (op.key, problem)
