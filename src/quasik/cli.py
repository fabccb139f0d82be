"""Batch command-line front end.

Commands: classes, chartab, gnz, lambda-basis, faithful, sfixed, quasi.
Results go to stdout, errors to stderr; exit codes are 0 (success),
1 (domain error) and 2 (usage error).  Output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple, Optional, Sequence, TextIO

from .chartable import character_table
from .errors import QuasiError, SelectorError
from .groups import (
    GroupTable,
    Limits,
    build_group,
    conjugacy_classes,
    make_comm_tuple,
    subgroup_from_generators,
    commuting_tuples,
)
from .lambdarep import (
    fixed_part_rep,
    kernel,
    lambda_basis,
    lambda_desc,
    q_twist,
    real_v_sigma,
    v_sigma,
)
from .quasicalc import _quasi_json, quasi_coefficients, render_quasi_text, s_fixed_predicate

CONSTRUCTIONS = ("plain", "q", "fixed", "real")


class CliConfig(NamedTuple):
    command: str
    group_spec: str
    n: int = 1
    sigma: tuple[str, ...] = ()
    subgroup: tuple[str, ...] = ()
    rep: Optional[str] = None
    construction: str = "plain"
    fmt: str = "text"
    limits: Limits = Limits()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasik",
        description="exact coefficient tables for twisted equivariant K-theory of finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sigma=False, subgroup=False, rep=False, n=False):
        p.add_argument("--group", required=True, help="builtin name or group file path")
        if n:
            p.add_argument("-n", type=int, default=1, help="tuple length (default 1)")
        if sigma:
            p.add_argument("--sigma", required=True, help="comma-separated element labels")
        if subgroup:
            p.add_argument("--H", dest="subgroup", required=True,
                           help="comma-separated generator labels of the subgroup")
        if rep:
            p.add_argument("--rep", required=True, help="representation label (chiK or regular)")
            p.add_argument("--construction", choices=CONSTRUCTIONS, default="plain",
                           help="plain=(V)_sigma, q=plain+q^-1 twist, fixed=plain+fixed part, real")
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility")
        p.add_argument("--max-order", dest="max_order", type=int,
                       default=Limits().order, help="size cap for subgroup/table computations")

    common(sub.add_parser("classes", help="conjugacy classes"))
    common(sub.add_parser("chartab", help="irreducible character table"))
    common(sub.add_parser("gnz", help="orbits of commuting n-tuples"), n=True)
    common(sub.add_parser("lambda-basis", help="free basis with q-twist exponents"), sigma=True)
    common(sub.add_parser("faithful", help="kernel/faithfulness of a twisted representation"),
           sigma=True, rep=True)
    common(sub.add_parser("sfixed", help="fixed-point dichotomy for a subgroup"),
           sigma=True, subgroup=True)
    common(sub.add_parser("quasi", help="full coefficient table"), n=True)
    return parser


def parse_args(argv: Sequence[str]) -> CliConfig:
    ns = build_parser().parse_args(argv)
    sigma = tuple(s for s in (ns.sigma.split(",") if getattr(ns, "sigma", None) else ()) if s)
    subgroup = tuple(
        s for s in (ns.subgroup.split(",") if getattr(ns, "subgroup", None) else ()) if s
    )
    m = ns.max_order
    cfg = CliConfig(
        command=ns.command,
        group_spec=ns.group,
        n=getattr(ns, "n", 1),
        sigma=sigma,
        subgroup=subgroup,
        rep=getattr(ns, "rep", None),
        construction=getattr(ns, "construction", "plain"),
        fmt=ns.fmt,
        limits=Limits(order=m, tuples=max(Limits().tuples, m * m)),
    )
    if cfg.n < 1:
        raise SelectorError("-n must be at least 1")
    if ns.threads < 1:
        raise SelectorError("--threads must be at least 1")
    if not 1 <= m <= Limits().closure:
        raise SelectorError(f"--max-order must be between 1 and {Limits().closure}")
    return cfg


def _lookup_elements(G: GroupTable, labels: Sequence[str]) -> tuple[int, ...]:
    out = []
    for s in labels:
        try:
            out.append(G.index_of(s))
        except KeyError:
            raise SelectorError(
                f"no element labelled {s!r} in {G.name}; labels are: "
                + ", ".join(G.labels)
            ) from None
    return tuple(out)


def _lookup_rep(G: GroupTable, label: str, limits: Limits):
    table = character_table(G, limits)
    if label == "regular":
        return table.regular_character()
    if label in table.labels:
        return table.irreducible(table.labels.index(label))
    raise SelectorError(
        f"unknown representation label {label!r}; use chi0..chi{len(table.rows) - 1} or regular"
    )


def run(cfg: CliConfig, out: Optional[TextIO] = None, err: Optional[TextIO] = None) -> int:
    """Dispatch a parsed configuration; returns the process exit code.  Each
    handler returns only the format asked for: a JSON document or text lines
    (quasi's are the strings that serialize_quasi encodes)."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        G = build_group(cfg.group_spec, cfg.limits)
        answer = _HANDLERS[cfg.command](cfg, G)
    except QuasiError as exc:
        print(f"error: {exc}", file=err)
        return 1
    if isinstance(answer, dict):
        import json  # here only: a text run never loads json
        answer = [json.dumps(answer, indent=2)]
    out.writelines(("\n".join(answer), "\n"))  # the newline written on its own: the answer is not copied
    return 0


def _cmd_classes(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    classes = conjugacy_classes(G)
    if cfg.fmt == "json":
        return {"group": G.name, "order": G.order, "classes": [
            {"rep": G.label(c.rep), "size": c.size, "members": list(map(G.label, c.members))}
            for c in classes
        ]}
    return [f"{len(classes)} conjugacy classes of {G.name} (order {G.order})",
            *(f"  {G.label(c.rep)}: size {c.size}" for c in classes)]


def _cmd_chartab(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    table = character_table(G, cfg.limits)
    reps = [G.label(c.rep) for c in table.classes]
    cells = [[v.render() for v in row] for row in table.rows]
    if cfg.fmt == "json":
        return {
            "group": G.name,
            "classes": [{"rep": r, "size": c.size} for r, c in zip(reps, table.classes)],
            "irreducibles": [
                {"label": label, "degree": degree, "values": row}
                for label, degree, row in zip(table.labels, table.degrees, cells)
            ],
        }
    rows = [("", reps), ("size", [str(c.size) for c in table.classes]),
            *zip(table.labels, cells)]
    widths = [max(map(len, column)) for column in zip(*(row for _, row in rows))]
    lw = max(len(s) for s in table.labels)
    return [f"character table of {G.name} (order {G.order})",
            *(label.ljust(lw) + "  " + "  ".join(v.rjust(w) for v, w in zip(row, widths))
              for label, row in rows)]


def _cmd_gnz(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    orbits = commuting_tuples(G, cfg.n, cfg.limits)
    if cfg.fmt == "json":
        return {"group": G.name, "n": cfg.n, "orbits": [
            {"sigma": list(map(G.label, o.representative.entries)), "orbit_size": o.orbit_size}
            for o in orbits
        ]}
    return [f"{len(orbits)} orbits of commuting {cfg.n}-tuples in {G.name}",
            *(f"  ({','.join(map(G.label, o.representative.entries))}) x {o.orbit_size}"
              for o in orbits)]


def _cmd_lambda_basis(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    desc = lambda_desc(G, _lookup_elements(G, cfg.sigma), cfg.limits)
    basis = [(desc.table.labels[b.lam], [str(w) for w in b.weight]) for b in lambda_basis(desc)]
    if cfg.fmt == "json":
        return {"group": G.name, "sigma": list(map(G.label, desc.sigma.entries)),
                "basis": [{"irrep": label, "twist": ws} for label, ws in basis]}
    return [f"basis of R(Lambda) over the torus characters; centralizer order "
            f"{desc.cent_group.order}, rank {len(basis)}",
            *(f"  ({label}, q^({', '.join(ws)})) x 1" for label, ws in basis)]


def _cmd_faithful(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    desc = lambda_desc(G, _lookup_elements(G, cfg.sigma), cfg.limits)
    chi = _lookup_rep(G, cfg.rep or "", cfg.limits)
    if cfg.construction == "real":
        rep = real_v_sigma(chi, desc)
    else:
        rep = v_sigma(chi, desc)
        if cfg.construction == "q":
            rep = rep + q_twist(rep, -1)
        elif cfg.construction == "fixed":
            rep = rep + fixed_part_rep(chi, desc)
    ker = kernel(rep)
    points = [(desc.cent_group.label(a), [str(x) for x in t]) for a, t in ker.finite_points]
    if cfg.fmt == "json":
        return {
            "group": G.name,
            "sigma": list(map(G.label, desc.sigma.entries)),
            "rep": cfg.rep,
            "construction": cfg.construction,
            "components": [
                {"irrep": desc.table.labels[c.lam], "twist": [str(w) for w in c.weight],
                 "multiplicity": m}
                for c, m in rep.components
            ],
            "torus_rank": ker.torus_rank,
            "full_group": ker.full_group,
            "kernel_points": [{"element": a, "t": t} for a, t in points],
            "faithful": ker.is_trivial,
        }
    return [rep.render(), f"torus_rank: {ker.torus_rank}",
            *(["kernel: the whole group acts trivially"] if ker.full_group else []),
            *(f"kernel point: ({a}; t = ({', '.join(t)}))" for a, t in points),
            "faithful" if ker.is_trivial else "not faithful"]


def _cmd_sfixed(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    sigma = make_comm_tuple(G, _lookup_elements(G, cfg.sigma))
    H = subgroup_from_generators(G, _lookup_elements(G, cfg.subgroup))
    verdict = s_fixed_predicate(G, sigma, H).label
    if cfg.fmt == "json":
        return {"group": G.name, "sigma": list(map(G.label, sigma.entries)),
                "H": list(map(G.label, H.elements)), "verdict": verdict}
    return [verdict]


def _cmd_quasi(cfg: CliConfig, G: GroupTable) -> dict | list[str]:
    # text as classes prints it, a group name from a non-UTF-8 path included
    table = quasi_coefficients(G, cfg.n, cfg.limits)
    return [(render_quasi_text if cfg.fmt == "text" else _quasi_json)(table)]


_HANDLERS = {
    "classes": _cmd_classes,
    "chartab": _cmd_chartab,
    "gnz": _cmd_gnz,
    "lambda-basis": _cmd_lambda_basis,
    "faithful": _cmd_faithful,
    "sfixed": _cmd_sfixed,
    "quasi": _cmd_quasi,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SelectorError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
