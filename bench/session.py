"""The lib-session child: one Python process calling the library.

    PYTHONPATH=src python3 bench/session.py OPS.json OUT.json [--trace]

OPS.json holds the op calls in run order.  Every group is built before the
first op; each op is then timed on its own.  OUT.json receives, per op, its
wall time, its CPU time and the bytes it produced (text), and the spans when
traced.
"""

from __future__ import annotations

import json
import sys
import time

import quasik as Q

from spans import Tracer
from workloads import class_reps_of


def _kernel_doc(G, orbit_reps: list[int], call: dict) -> dict:
    sigma = (orbit_reps[call["orbit"]],)
    desc = Q.lambda_desc(G, sigma)
    table = Q.character_table(G)
    rep = call["rep"]
    chi = table.regular_character() if rep == "regular" else table.irreducible(rep)
    base = Q.v_sigma(chi, desc)
    if call["construction"] == "q":
        base = base + Q.q_twist(base, -1)
    elif call["construction"] == "fixed":
        base = base + Q.fixed_part_rep(chi, desc)
    ker = Q.kernel(base)
    return {
        "rep": base.render(),
        "torus_rank": ker.torus_rank,
        "full_group": ker.full_group,
        "points": [[desc.cent_group.label(a), [str(x) for x in t]] for a, t in ker.finite_points],
        "faithful": ker.is_trivial,
    }


def run_op(G, orbit_reps: list[int], call: dict) -> bytes:
    if call["command"] == "quasi":
        return Q.serialize_quasi(Q.quasi_coefficients(G, call["n"]), "json")
    return json.dumps(_kernel_doc(G, orbit_reps, call), sort_keys=True).encode()


def main(argv: list[str]) -> int:
    ops_path, out_path = argv[0], argv[1]
    tracer = Tracer() if "--trace" in argv[2:] else None
    if tracer is not None:
        tracer.install()
    with open(ops_path) as fh:
        ops = json.load(fh)
    groups = {}
    for op in ops:
        if op["group"] not in groups:
            G = Q.build_group(op["group"])
            table = [[G.mul(a, b) for b in range(G.order)] for a in range(G.order)]
            groups[op["group"]] = (G, class_reps_of(table))
    results = []
    wall, cpu = time.perf_counter, time.process_time
    for op in ops:
        t0, c0 = wall(), cpu()
        out = run_op(*groups[op["group"]], op["call"])
        results.append([wall() - t0, cpu() - c0, out.decode()])
    with open(out_path, "w") as fh:
        json.dump({"ops": results, "trace": tracer.dump() if tracer else None}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
