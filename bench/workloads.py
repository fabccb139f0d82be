"""Workload op lists and the output checks of the quasik benchmark.

An op is one CLI invocation or one library call.  Every op is checked three
ways: its output against a sha256 recorded at the commit that defined the
benchmark (``expected.json``), against invariants this module computes from
its own construction of the group, and, for the ops that must be rejected,
by exit code and a one-line stderr with no traceback.

Nothing here imports quasik: the group oracle below builds each group from
its own generators, so a wrong multiplication table in the program cannot
make its own checks pass.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Op:
    """One op.  ``argv`` is the CLI argument list; ``call`` names a library
    call for the session child.  ``code`` is the exit code the op must give."""

    key: str
    group: str
    argv: tuple[str, ...] = ()
    call: dict = field(default_factory=dict, hash=False, compare=False)
    code: int = 0

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else self.call["command"]


def _cli(*argv: str, code: int = 0) -> Op:
    group = argv[argv.index("--group") + 1]
    return Op(key=" ".join(argv), group=group, argv=tuple(argv), code=code)


def _both_formats(*argv: str) -> list[Op]:
    return [_cli(*argv), _cli(*argv, "--format", "json")]


# -- cli-small: every command on groups of order <= 24 -------------------------

_CLI_SMALL_COMMANDS = [
    ("quasi", "--group", "symmetric:3", "-n", "1"),
    ("quasi", "--group", "quaternion8", "-n", "2"),
    ("quasi", "--group", "dihedral:4", "-n", "2"),
    ("quasi", "--group", "cyclic:12", "-n", "1"),
    ("faithful", "--group", "cyclic:4", "--sigma", "g2", "--rep", "chi3"),
    ("faithful", "--group", "symmetric:3", "--sigma", "(123)", "--rep", "regular",
     "--construction", "q"),
    ("lambda-basis", "--group", "symmetric:3", "--sigma", "(123)"),
    ("lambda-basis", "--group", "dihedral:4", "--sigma", "(13)(24),(24)"),
    ("sfixed", "--group", "symmetric:3", "--sigma", "(12)", "--H", "(123)"),
    ("classes", "--group", "symmetric:4"),
    ("gnz", "--group", "symmetric:3", "-n", "2"),
    ("gnz", "--group", "alternating:4", "-n", "2"),
    ("chartab", "--group", "symmetric:4"),
]

CLI_SMALL = [op for argv in _CLI_SMALL_COMMANDS for op in _both_formats(*argv)] + [
    _cli("quasi", "--group", "symmetric:5", "-n", "2", code=1),
    _cli("faithful", "--group", "cyclic:4", "--sigma", "zz", "--rep", "chi3", code=1),
    _cli("quasi", "--group", "symmetric:3", "-n", "0", code=2),
]

# -- chartab-cyclo: large-exponent abelian tables ------------------------------
# quasi runs on cyclic:18, not cyclic:24: at 6 s it nearly repeated chartab
# cyclic:24 and left room for only two passes in a run.

CHARTAB_CYCLO = [
    _cli("chartab", "--group", g)
    for g in ("cyclic:16", "cyclic:18", "cyclic:20", "cyclic:24", "dihedral:12")
] + [_cli("quasi", "--group", "cyclic:18", "-n", "1")]

# -- lib-session: one process calling the library ------------------------------

LIB_GROUPS = ("symmetric:3", "symmetric:4", "alternating:4", "dihedral:4", "dihedral:6",
              "quaternion8", "cyclic:6", "cyclic:8", "cyclic:12")
# A pass must take a few seconds so that one run makes several passes.  These
# caps drop the three n=3 cases with |G|^n = 1728 (quasi on cyclic:12 at n=3
# alone took 5 s) and the irreducible kernel sweep of cyclic:12 (468 ops, 13 s).
SESSION_TUPLE_CAP = 1024  # quasi ops for n in 1..3 with |G|^n at most this
IRREDUCIBLE_SWEEP_MAX_CLASSES = 8  # kernel ops on irreducibles only up to this many classes
CONSTRUCTIONS = ("plain", "q", "fixed")


def _lib_session() -> list[Op]:
    ops = []
    for g in LIB_GROUPS:
        order = len(oracle_group(g))
        for n in (1, 2, 3):
            if order**n <= SESSION_TUPLE_CAP:
                ops.append(Op(key=f"quasi_coefficients {g} n={n}", group=g,
                              call={"command": "quasi", "n": n}))
        k = len(class_reps(g))
        reps = ["regular", *(range(k) if k <= IRREDUCIBLE_SWEEP_MAX_CLASSES else ())]
        for orbit, rep, cons in product(range(k), reps, CONSTRUCTIONS):
            label = rep if rep == "regular" else f"chi{rep}"
            ops.append(Op(key=f"kernel {g} orbit={orbit} rep={label} {cons}", group=g,
                          call={"command": "kernel", "orbit": orbit, "rep": rep,
                                "construction": cons}))
    return ops


WORKLOADS = {
    "cli-small": lambda: CLI_SMALL,
    "chartab-cyclo": lambda: CHARTAB_CYCLO,
    "lib-session": _lib_session,
}

# -- group oracle ---------------------------------------------------------------


def _closure(gens: list[tuple], mul, identity: tuple) -> list[tuple]:
    elems, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems)


def _perm_mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[p[i]] for i in range(len(p)))


def _quat_mul(a: tuple, b: tuple) -> tuple:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3, a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1, a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


@lru_cache(maxsize=None)
def oracle_group(spec: str) -> tuple[tuple[int, ...], ...]:
    """Cayley table of a builtin group, built from its own generators."""
    if spec == "quaternion8":
        elems = _closure([(0, 1, 0, 0), (0, 0, 1, 0)], _quat_mul, (1, 0, 0, 0))
        mul = _quat_mul
    else:
        kind, k = re.fullmatch(r"(cyclic|dihedral|symmetric|alternating):(\d+)", spec).groups()
        k = int(k)
        cycle = tuple(list(range(1, k)) + [0])
        gens = {
            "cyclic": [cycle],
            "dihedral": [cycle, tuple(k - 1 - i for i in range(k))],
            "symmetric": [cycle, (1, 0, *range(2, k))],
            "alternating": [tuple({0: 1, 1: m, m: 0}.get(i, i) for i in range(k))
                            for m in range(2, k)],
        }[kind]
        elems = _closure(gens, _perm_mul, tuple(range(k)))
        mul = _perm_mul
    index = {x: i for i, x in enumerate(elems)}
    return tuple(tuple(index[mul(a, b)] for b in elems) for a in elems)


def class_reps(spec: str) -> list[int]:
    """Least member of each conjugacy class, ascending (the n=1 orbit order)."""
    return class_reps_of(oracle_group(spec))


def class_reps_of(table) -> list[int]:
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    inv = [table[a].index(identity) for a in range(n)]
    seen, reps = set(), []
    for x in range(n):
        if x not in seen:
            seen.update(table[table[g][x]][inv[g]] for g in range(n))
            reps.append(x)
    return reps


@lru_cache(maxsize=None)
def _hom_count(table, sub: frozenset, k: int) -> int:
    if k == 0:
        return 1
    return sum(
        _hom_count(table, frozenset(x for x in sub if table[x][g] == table[g][x]), k - 1)
        for g in sub
    )


def hom_count(spec: str, k: int) -> int:
    """|Hom(Z^k, G)|, the number of pairwise-commuting k-tuples, by centralizer
    recursion: |Hom(Z^k, H)| = sum over h in H of |Hom(Z^(k-1), C_H(h))|."""
    table = oracle_group(spec)
    return _hom_count(table, frozenset(range(len(table))), k)


# -- output checks ----------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text())


def _quasi_records(op: Op, out: str) -> tuple[int, list[tuple[int, int, int]], int]:
    """(n, [(orbit_size, centralizer_order, rank)], total_rank) from quasi output."""
    if op.call or "json" in op.argv:
        doc = json.loads(out)
        recs = [(r["orbit_size"], r["centralizer_order"], r["rank"]) for r in doc["records"]]
        return doc["n"], recs, doc["total_rank"]
    lines = out.splitlines()
    recs = [tuple(int(t) for t in line.split()[1:4]) for line in lines[2:-1]]
    n = int(op.argv[op.argv.index("-n") + 1])
    return n, recs, int(lines[-1].rsplit(":", 1)[1])


def invariant_problem(op: Op, out: str) -> str | None:
    """Check the output of a successful op against the group oracle."""
    order = len(oracle_group(op.group))
    command = op.command
    if command == "quasi":
        n, recs, total = _quasi_records(op, out)
        if sum(r[0] for r in recs) != hom_count(op.group, n):
            return "orbit sizes do not sum to the number of commuting tuples"
        if any(size * cent != order for size, cent, _ in recs):
            return "orbit_size * centralizer_order != |G|"
        if total * order != hom_count(op.group, n + 2):
            return "total_rank != |Hom(Z^(n+2), G)| / |G|"
    elif command == "gnz":
        n = int(op.argv[op.argv.index("-n") + 1])
        if "json" in op.argv:
            sizes = [o["orbit_size"] for o in json.loads(out)["orbits"]]
        else:
            sizes = [int(m) for m in re.findall(r" x (\d+)$", out, re.M)]
        if sum(sizes) != hom_count(op.group, n):
            return "orbit sizes do not sum to the number of commuting tuples"
    elif command == "chartab":
        if "json" in op.argv:
            degrees = [r["degree"] for r in json.loads(out)["irreducibles"]]
        else:
            degrees = [int(line.split()[1]) for line in out.splitlines() if line.startswith("chi")]
        if sum(d * d for d in degrees) != order:
            return "squared degrees do not sum to |G|"
    elif command == "kernel" and op.call["rep"] == "regular":
        if not json.loads(out)["faithful"]:
            return "regular-character construction is not faithful"
    return None


def check(op: Op, code: int, out: bytes, err: bytes, expected: dict[str, str]) -> str | None:
    """None when the op's result is correct, else the reason it is not."""
    if code != op.code:
        return f"exit code {code}, expected {op.code}"
    want = expected.get(op.key)
    if want is None:
        return "no recorded digest"
    if digest(out) != want:
        return "output digest differs from the recorded one"
    if op.code != 0:
        lines = err.decode(errors="replace").splitlines()
        if len(lines) != 1 or "Traceback" in lines[0]:
            return "rejection must print exactly one stderr line and no traceback"
        return None
    return invariant_problem(op, out.decode())
