"""Assembly of the degree-zero coefficient tables.

For each orbit of commuting n-tuples sigma the equivariant K-theory of a
point for Lambda_G(sigma) is the representation ring R Lambda_G(sigma),
free over Z[q_1, q_1^-1, ..., q_n, q_n^-1] with one basis element per
irreducible of the centralizer.  The assembled table records, per orbit,
the rank and the multiset of q-twist exponents of the basis.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple

from .chartable import character_table
from .errors import QuasiError
from .groups import (
    CommTuple,
    GroupTable,
    Limits,
    Subgroup,
    _descent,
    contains_conjugate,
    subgroup_from_generators,
)
from .lambdarep import twist_weights


class QuasiRecord(NamedTuple):
    """One coefficient-ring factor: rank and twist data for a tuple orbit.  columns[i]
    is sigma_i's weight on each basis irreducible, its centralizer table's own column."""

    sigma_labels: tuple[str, ...]
    orbit_size: int
    centralizer_order: int
    rank: int
    columns: tuple[tuple[Fraction, ...], ...]

    @property
    def twists(self) -> tuple[tuple[Fraction, ...], ...]:
        """The weight vector of each basis irreducible, as the JSON holds them."""
        return tuple(zip(*self.columns))


class QuasiTable(NamedTuple):
    group: str
    n: int
    records: tuple[QuasiRecord, ...]
    total_rank: int
    theory: str = "K"


def quasi_coefficients(G: GroupTable, n: int, limits: Limits = Limits()) -> QuasiTable:
    """One record per orbit of commuting n-tuples, with the free-module rank
    and basis twists of the corresponding representation ring.  Each orbit comes
    with its centralizer's table from the descent; no LambdaDesc or CommTuple is built."""
    records = []
    for entries, orbit_size, C, to_G in _descent(G, n, limits):
        columns = twist_weights(character_table(C, limits), to_G, entries)
        records.append(QuasiRecord(tuple(map(G.label, entries)), orbit_size, C.order, len(columns[0]), columns))
    return QuasiTable(group=G.name, n=n, records=tuple(records), total_rank=sum(r.rank for r in records))


# -- fixed-point dichotomy -------------------------------------------------------


class SFixedVerdict(NamedTuple):
    """Homotopy type of the auxiliary fixed-point space: empty or a point."""

    empty: bool

    @property
    def label(self) -> str:
        return "Empty" if self.empty else "Contractible"


def s_fixed_predicate(G: GroupTable, sigma: CommTuple, H: Subgroup) -> SFixedVerdict:
    """Empty iff some conjugate of the subgroup generated by the tuple lies in H."""
    gamma = subgroup_from_generators(G, sigma.entries)
    return SFixedVerdict(empty=contains_conjugate(G, gamma, H))


# -- Laurent-series base change ----------------------------------------------------


def tate_rank_report(table: QuasiTable) -> dict:
    """Ranks after base change to the Laurent-series ring; free-module ranks
    are preserved, so this is bookkeeping only."""
    base = "Z((q))" if table.n == 1 else f"Z((q))^(x{table.n})"
    return {
        "group": table.group,
        "n": table.n,
        "base": base,
        "record_ranks": [r.rank for r in table.records],
        "total_rank": table.total_rank,
    }


def render_tate_report(report: dict) -> str:
    lines = [
        f"base change to {report['base']} for {report['group']} (n={report['n']})",
        f"record ranks: {', '.join(str(r) for r in report['record_ranks']) or '(none)'}",
        f"total rank: {report['total_rank']}",
    ]
    return "\n".join(lines)


# -- serialization ------------------------------------------------------------------


def _weight_strings(table: QuasiTable, render: Callable[[str], str]) -> dict[int, list[str]]:
    """[render(str(w)) for w in column] for each distinct column object of the table,
    by id(column).  Every record reads its centralizer's weight columns, so few are
    distinct.  Keyed by identity, as equal columns such as (1/2,) and (0.5,) may print
    differently; the table holds each column for as long as the result is used."""
    columns = {id(col): col for rec in table.records for col in rec.columns}
    return {key: [render(str(w)) for w in col] for key, col in columns.items()}


def serialize_quasi(table: QuasiTable, fmt: str = "json") -> bytes:
    """Deterministic byte serialization in 'json' or 'text' format: the answer
    text that the CLI writes, and its newline."""
    if fmt not in ("json", "text"):
        raise QuasiError(f"unknown serialization format {fmt!r}")
    try:
        return ((render_quasi_text if fmt == "text" else _quasi_json)(table) + "\n").encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate in the text, which the JSON escapes
        raise QuasiError(f"the text format cannot encode {exc.object[exc.start:exc.end]!r}") from None


def _quasi_json(table: QuasiTable) -> str:
    """The JSON document in one pass, as json.dumps(document, indent=2) writes it."""
    # json.dumps's C string escape, loaded here and in parse_quasi only: a text run never loads json
    from json.encoder import encode_basestring_ascii as q

    def array(items: list[str], pad: str) -> str:  # as indent=2 writes it: one item a line at pad
        return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[2:] + "]" if items else "[]"

    ws = _weight_strings(table, q)
    records = [
        '{\n      "sigma": ' + array([q(s) for s in rec.sigma_labels], " " * 8)
        + f',\n      "orbit_size": {_json(rec.orbit_size, int)}'
        + f',\n      "centralizer_order": {_json(rec.centralizer_order, int)}'
        + f',\n      "rank": {_json(rec.rank, int)}'
        + ',\n      "twists": '
        + array(["[\n          " + ",\n          ".join(t) + "\n        ]"
                 for t in zip(*[ws[id(c)] for c in rec.columns])], " " * 8)
        + "\n    }"
        for rec in table.records
    ]
    return (f'{{\n  "group": {q(table.group)},\n  "n": {_json(table.n, int)},'
            f'\n  "E": {q(table.theory)},\n  "records": {array(records, "    ")},'
            f'\n  "total_rank": {_json(table.total_rank, int)}\n}}')


def render_quasi_text(table: QuasiTable) -> str:
    header = f"coefficients of Q{table.theory}^0_{{{table.n},G}}(pt) for G = {table.group}"
    ws = _weight_strings(table, str)
    cells = [["sigma", "orbit", "|C|", "rank"]] + [
        ["(" + ",".join(rec.sigma_labels) + ")", str(rec.orbit_size), str(rec.centralizer_order), str(rec.rank)]
        for rec in table.records]
    widths = [max(map(len, col)) for col in zip(*cells)]
    # only these four columns are padded: each line ends in its twists, joined as the line is
    twists = chain(["twists"], (
        " ".join(["(" + ",".join(t) + ")" for t in zip(*[ws[id(c)] for c in rec.columns])]) for rec in table.records))
    lines = [("  ".join(map(str.ljust, r, widths)) + "  " + t).rstrip() for r, t in zip(cells, twists)]
    return "\n".join([header, *lines, f"total rank: {table.total_rank}"])


def _json(value: object, kind: type):
    # the exact type, read or written: int() would truncate 1.9, and a JSON true is a Python int
    if type(value) is not kind:
        raise TypeError(f"expected a {kind.__name__}, got {value!r}")
    return value


def _twist_entry(value: object) -> Fraction:
    # only what serialize_quasi writes: a JSON number would carry a binary
    # float, and Fraction("1e3000000") takes seconds to expand
    if not (isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value)):
        raise ValueError(f"a twist entry is a string p or p/q, got {value!r}")
    return Fraction(value)


def parse_quasi(data: bytes | str) -> QuasiTable:
    """Parse the JSON serialization back into a QuasiTable; malformed input raises QuasiError."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        import json
        doc = json.loads(data)
        records = [
            QuasiRecord(
                sigma_labels=tuple(_json(s, str) for s in _json(rec["sigma"], list)),
                orbit_size=_json(rec["orbit_size"], int),
                centralizer_order=_json(rec["centralizer_order"], int),
                rank=_json(rec["rank"], int),
                columns=tuple(  # the rows as read, transposed below once checked
                    tuple(_twist_entry(w) for w in _json(t, list)) for t in rec["twists"]
                ),
            )
            for rec in doc["records"]
        ]
        table = QuasiTable(
            group=_json(doc["group"], str),
            n=_json(doc["n"], int),
            records=tuple(records),
            total_rank=_json(doc["total_rank"], int),
            theory=_json(doc.get("E", "K"), str),
        )
    except (ValueError, TypeError, LookupError, ArithmeticError, RecursionError) as exc:
        raise QuasiError(f"malformed coefficient table: {exc!r}") from None
    if table.n < 1:
        raise QuasiError(f"a table has n = {table.n}, and n must be >= 1")
    for rec in table.records:  # as quasi_coefficients makes them: rank rows, each of n entries like sigma
        if rec.rank != len(rec.columns):
            raise QuasiError(f"a record has rank {rec.rank} and {len(rec.columns)} twists")
        if any(len(t) != table.n for t in (rec.sigma_labels, *rec.columns)):
            raise QuasiError(f"a record's sigma or twist does not have n = {table.n} entries")
    if table.total_rank != sum(r.rank for r in table.records):
        raise QuasiError("total_rank does not match the records")
    # zip(*rows) would drop a long row's tail, and gives no column at rank 0
    return table._replace(records=tuple(
        rec._replace(columns=tuple(zip(*rec.columns)) or ((),) * table.n) for rec in table.records))
