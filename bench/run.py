"""The quasik benchmark.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --selftest      # quick check that the checker can fail
    python3 bench/run.py --record        # rewrite expected.json (only when outputs change on purpose)

Run from anywhere; the program is taken from ``src/`` beside ``bench/``.
Ops run one child process at a time.  With ``--trace 0`` the run reports
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it name every metric
with its unit, then the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from workloads import EXPECTED_PATH, WORKLOADS, Op, check, digest, invariant_problem, load_expected

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
SETUP_SPAWNS = 5  # start-up spawns before the first pass and after each; setup_s is their median
MIN_PASSES = 3  # untraced passes a run makes even when they overrun --seconds
SPAWN_TIMEOUT_S = 150
TAIL_MIN_SAMPLES = 20  # below this the tail percentile would not lie above the median


@dataclass
class Spawn:
    seconds: float
    cpu: float  # user + system CPU seconds of the child
    code: int
    out: bytes
    err: bytes
    maxrss_kb: int


@dataclass
class Pass:
    wall: float
    cpu: float
    op_seconds: list[float]
    op_cpu: list[float]
    outcomes: list[tuple[Op, int, bytes, bytes]]  # (op, exit code, stdout, stderr)
    maxrss_kb: int
    spans: dict | None = None  # aggregated trace of the pass
    lost: dict[str, str] = field(default_factory=dict)  # op key -> why its trace is missing

    def failures(self, expected: dict) -> list[tuple[str, str]]:
        """(op key, reason) for every op whose result or trace is not correct."""
        checked = ((op.key, check(op, code, out, err, expected) or self.lost.get(op.key))
                   for op, code, out, err in self.outcomes)
        return [(key, reason) for key, reason in checked if reason]


class Runner:
    """Spawns children in the checkout, one at a time, each timed from spawn to reap."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def spawn(self, argv: list[str]) -> Spawn:
        with open(self.tmp / "stdout", "w+b") as out, open(self.tmp / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Spawn(seconds, usage.ru_utime + usage.ru_stime, proc.returncode,
                         out.read(), err.read(), usage.ru_maxrss)

    def python(self, *args: str) -> Spawn:
        return self.spawn([sys.executable, *args])


# -- passes ---------------------------------------------------------------------


def _add_spans(total: dict, trace: dict) -> None:
    for name, (count, self_s, total_s) in trace["spans"].items():
        acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += count
        acc[1] += self_s
        acc[2] += total_s
    total["tables_built"] += trace["tables_built"]
    total["orbits"] += trace["orbits"]


def _empty_trace() -> dict:
    return {"spans": {}, "tables_built": 0, "orbits": 0}


def cli_pass(runner: Runner, ops: list[Op], traced: bool) -> Pass:
    """One cold ``python -m quasik.cli`` process per op; the pass wall is their sum."""
    trace_path = runner.tmp / "trace.json"
    p = Pass(0.0, 0.0, [], [], [], 0, _empty_trace() if traced else None)
    for op in ops:
        if traced:
            trace_path.unlink(missing_ok=True)
            s = runner.python(str(BENCH_DIR / "spans.py"), str(trace_path), "--", *op.argv)
            if trace_path.is_file():
                _add_spans(p.spans, json.loads(trace_path.read_text()))
            else:
                p.lost[op.key] = "no trace written"
        else:
            s = runner.python("-m", "quasik.cli", *op.argv)
        p.wall += s.seconds
        p.cpu += s.cpu
        p.op_seconds.append(s.seconds)
        p.op_cpu.append(s.cpu)
        p.outcomes.append((op, s.code, s.out, s.err))
        p.maxrss_kb = max(p.maxrss_kb, s.maxrss_kb)
    return p


def lib_pass(runner: Runner, ops: list[Op], traced: bool) -> Pass:
    """One session process over all ops; the pass wall is that process's."""
    ops_path, out_path = runner.tmp / "ops.json", runner.tmp / "session.json"
    ops_path.write_text(json.dumps([{"group": op.group, "call": op.call} for op in ops]))
    out_path.unlink(missing_ok=True)
    argv = [str(BENCH_DIR / "session.py"), str(ops_path), str(out_path)]
    s = runner.python(*argv, *(["--trace"] if traced else []))
    if s.code != 0 or not out_path.is_file():
        return Pass(s.seconds, s.cpu, [], [], [(op, s.code, b"", s.err) for op in ops],
                    s.maxrss_kb, _empty_trace() if traced else None)
    doc = json.loads(out_path.read_text())
    p = Pass(s.seconds, s.cpu, [wall for wall, _, _ in doc["ops"]], [cpu for _, cpu, _ in doc["ops"]],
             [(op, 0, text.encode(), b"") for op, (_, _, text) in zip(ops, doc["ops"])],
             s.maxrss_kb, _empty_trace() if traced else None)
    if traced:
        _add_spans(p.spans, doc["trace"])
    return p


def run_pass(runner: Runner, ops: list[Op], traced: bool) -> Pass:
    return (lib_pass if ops[0].call else cli_pass)(runner, ops, traced)


# -- metrics --------------------------------------------------------------------

SELF, COUNT = 1, 0
# per-layer metric -> (field, span names); a name ending in "." matches a prefix
SPAN_METRICS = {
    "cli.run_self_s": (SELF, ("cli.",)),
    "quasicalc.serialize_s": (SELF, ("quasicalc.serialize_quasi", "quasicalc.render_quasi_text")),
    "quasicalc.quasi_coefficients_s": (SELF, ("quasicalc.quasi_coefficients",)),
    "cyclotomic.self_s": (SELF, ("cyclotomic.",)),
    "cyclotomic.ops": (COUNT, ("cyclotomic.Cyc.",)),
    "chartable.character_table_s": (SELF, ("chartable.character_table",)),
    "chartable.character_table_calls": (COUNT, ("chartable.character_table",)),
    "chartable.central_scalar_s": (SELF, ("chartable.central_scalar",)),
    "chartable.central_scalar_calls": (COUNT, ("chartable.central_scalar",)),
    "chartable.decompose_s": (SELF, ("chartable.decompose",)),
    "cyclotomic.as_root_of_unity_s": (SELF, ("cyclotomic.as_root_of_unity",)),
    "cyclotomic.as_root_of_unity_calls": (COUNT, ("cyclotomic.as_root_of_unity",)),
    "lambdarep.lambda_desc_s": (SELF, ("lambdarep.lambda_desc",)),
    "lambdarep.lambda_desc_calls": (COUNT, ("lambdarep.lambda_desc",)),
    "lambdarep.v_sigma_s": (SELF, ("lambdarep.v_sigma",)),
    "lambdarep.kernel_s": (SELF, ("lambdarep.kernel",)),
    "lambdarep.kernel_calls": (COUNT, ("lambdarep.kernel",)),
    "snf.smith_normal_form_s": (SELF, ("snf.smith_normal_form",)),
    "snf.smith_normal_form_calls": (COUNT, ("snf.smith_normal_form",)),
    "groups.build_group_s": (SELF, ("groups.build_group",)),
    "groups.conjugacy_classes_s": (SELF, ("groups.conjugacy_classes",)),
    "groups.centralizer_s": (SELF, ("groups.centralizer",)),
    "groups.centralizer_calls": (COUNT, ("groups.centralizer",)),
    "groups.subgroup_table_s": (SELF, ("groups.subgroup_table",)),
    "groups.subgroup_table_calls": (COUNT, ("groups.subgroup_table",)),
    "groups.commuting_tuples_s": (SELF, ("groups.commuting_tuples",)),
}


def span_metrics(trace: dict) -> dict[str, float]:
    def matches(name: str, patterns: tuple[str, ...]) -> bool:
        return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)

    out = {
        metric: sum(v[field] for name, v in trace["spans"].items() if matches(name, patterns))
        for metric, (field, patterns) in SPAN_METRICS.items()
    }
    out["chartable.tables_built"] = trace["tables_built"]
    out["groups.orbits"] = trace["orbits"]
    return out


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    if len(samples) < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    i = len(ordered) - 11
    return 100.0 * (i + 1) / len(ordered), ordered[i]


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def measure(runner: Runner, ops: list[Op], seed: int, seconds: float, traced: bool,
            expected: dict, setup_spawns: int = SETUP_SPAWNS,
            min_passes: int = MIN_PASSES) -> Result:
    """Set up, then run passes over the seed-permuted op list for ``seconds``.

    An untraced run makes at least ``min_passes`` passes, so that its times
    are medians over passes.  Start-up spawns are taken before the first pass
    and again after every pass, so their median covers the machine's state
    over the whole run.  An op that fails still counts, and a metric with no
    samples is left out of the result.

    The gated times are CPU seconds (user + system).  On a virtual machine
    whose CPU time is partly taken by the host, wall times spread several
    times wider than CPU times; they are printed beside them as information.
    """
    runner.python("-m", "compileall", "-q", str(ROOT / "src" / "quasik"), str(BENCH_DIR))
    runner.python("-c", "import quasik")
    bare, imports = [], []

    def sample_start_up() -> None:
        for _ in range(setup_spawns):
            if traced:
                bare.append(runner.python("-c", "pass"))
            imports.append(runner.python("-c", "import quasik"))

    rng = random.Random(seed)
    plain, traced_passes, failures = [], [], []
    sample_start_up()
    start = time.perf_counter()
    while True:
        pair = [False, True] if traced else [False]
        if traced and len(plain) % 2:
            pair.reverse()
        for t in pair:
            order = list(ops)
            rng.shuffle(order)
            p = run_pass(runner, order, t)
            failures += p.failures(expected)
            p.outcomes.clear()
            (traced_passes if t else plain).append(p)
        sample_start_up()
        spent = time.perf_counter() - start
        if ((traced or len(plain) >= min_passes)
                and spent * (len(plain) + 1) / len(plain) > seconds):
            break

    attempted = len(ops) * (len(plain) + len(traced_passes))
    lines = [f"workload ops={len(ops)} seed={seed} passes={len(plain)} traced_passes="
             f"{len(traced_passes)} attempted={attempted} failed={len(failures)}"]
    lines += [f"FAIL {key}: {reason}" for key, reason in failures[:20]]
    metrics: dict[str, tuple[float, str]] = {}
    if traced:
        per_pass = [span_metrics(p.spans) for p in traced_passes]
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name.endswith("_s"):
                metrics[name] = (statistics.median(values), "s")
            else:
                if len(set(values)) != 1:
                    lines.append(f"WARNING {name} differs between passes: {values}")
                metrics[name] = (values[0], "count")
        interpreter = statistics.median(s.cpu for s in bare)
        metrics["cli.interpreter_s"] = (interpreter, "s")
        metrics["cli.import_s"] = (statistics.median(s.cpu for s in imports) - interpreter, "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.cpu for p in traced_passes)
            / statistics.median(p.cpu for p in plain), "ratio")
    else:
        op_seconds = [s for p in plain for s in p.op_seconds]
        op_cpu = [s for p in plain for s in p.op_cpu]
        metrics["setup_s"] = (statistics.median(s.cpu for s in imports), "s")
        metrics["cpu_s"] = (statistics.median(p.cpu for p in plain), "s")
        if op_cpu:
            metrics["op_cpu_p50_s"] = (statistics.median(op_cpu), "s")
        metrics["peak_rss_mb"] = (max(p.maxrss_kb for p in plain) / 1024, "MB")
        lines.append(f"setup_wall_s = {statistics.median(s.seconds for s in imports):.6g} s")
        lines.append(f"wall_s = {statistics.median(p.wall for p in plain):.6g} s")
        if op_seconds:
            lines.append(f"op_p50_s = {statistics.median(op_seconds):.6g} s")
        t = tail(op_seconds)
        if t is None:
            lines.append(f"op_tail_s omitted: {len(op_seconds)} op samples, "
                         f"fewer than {TAIL_MIN_SAMPLES}")
        else:
            lines.append(f"op_tail_s = {t[1]:.6g} s (p{t[0]:.1f} of {len(op_seconds)} samples, "
                         "10 beyond)")
        lines.append(f"fail_ratio = {len(failures) / attempted:.6g} "
                     f"({len(failures)}/{attempted})")
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return Result(attempted, len(failures), metrics, lines)


# -- run metadata -----------------------------------------------------------------


def calibration_s() -> float:
    """Median time of a fixed pure-Python Fraction loop; reported, never divided by."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 20000):
            acc += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "calibration_s": calibration_s()}


# -- modes ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, traced: bool) -> int:
    ops = WORKLOADS[workload]()
    before = metadata()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        result = measure(Runner(Path(tmp)), ops, seed, seconds, traced, load_expected())
    after = metadata()
    print(f"workload {workload}")
    print("\n".join(result.lines))
    print("meta " + json.dumps({"start": before, "end": after}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


def record() -> int:
    """Write the digest of every op's output after checking its exit code and invariants."""
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        for workload, make in WORKLOADS.items():
            ops = make()
            for op, code, out, _ in run_pass(runner, ops, traced=False).outcomes:
                problem = (f"exit code {code}" if code != op.code
                           else op.code == 0 and invariant_problem(op, out.decode()))
                if problem:
                    print(f"not recording {op.key}: {problem}", file=sys.stderr)
                    return 1
                digests[op.key] = digest(out)
            print(f"{workload}: {len(ops)} ops checked")
    EXPECTED_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def selftest() -> int:
    """Quick passes over a few ops per workload, showing that the checks can fail."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected()
    quick = {
        "cli-small": ["quasi --group symmetric:3 -n 1 --format json", "gnz --group symmetric:3 -n 2",
                      "quasi --group symmetric:3 -n 0"],
        "chartab-cyclo": ["chartab --group dihedral:12"],
        "lib-session": [op.key for op in WORKLOADS["lib-session"]() if op.group == "symmetric:3"],
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        for workload, keys in quick.items():
            ops = [op for op in WORKLOADS[workload]() if op.key in keys]

            def quick_run(ops, traced, seed=DEFAULT_SEED, digests=expected):
                return measure(runner, ops, seed, 0, traced, digests, setup_spawns=1, min_passes=1)

            honest = quick_run(ops, False)
            expect(honest.failed == 0, f"{workload}: {len(ops)} ops pass their checks")
            for m in bench["end_to_end"]:
                expect(any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                           for line in honest.lines), f"{workload}: prints {m['name']} in {m['unit']}")
            seeds = [quick_run(ops, True, seed) for seed in (DEFAULT_SEED, DEFAULT_SEED + 1)]
            expect(all(r.failed == 0 for r in seeds), f"{workload}: traced passes pass with two seeds")
            expect(all(seeds[0].metrics.get(m["name"], (None, ""))[1] == m["unit"]
                       for m in bench["per_layer"]), f"{workload}: every per-layer metric with its unit")
            counts = [{k: v for k, (v, u) in r.metrics.items() if u == "count"} for r in seeds]
            expect(counts[0] == counts[1], f"{workload}: per-layer counts equal under two seeds")
            corrupted = {**expected, ops[0].key: digest(b"corrupted")}
            expect(quick_run(ops, False, digests=corrupted).failed > 0,
                   f"{workload}: a corrupted expected digest counts as a failure")
            wrong_code = [replace(ops[0], code=ops[0].code + 1), *ops[1:]]
            expect(quick_run(wrong_code, False).failed > 0,
                   f"{workload}: a wrong expected exit code counts as a failure")
            if workload == "lib-session":
                crashing = [replace(ops[0], group="cyclic:0"), *ops[1:]]
                expect(all(r.failed == r.attempted for r in (quick_run(crashing, t) for t in (False, True))),
                       f"{workload}: a crashed session child counts every op as failed")
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} checks"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="quasik benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="permutes the op order only (default %(default)s)")
    parser.add_argument("--seconds", type=int, default=40, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quasik" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
