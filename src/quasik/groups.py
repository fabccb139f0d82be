"""Finite groups as index tables: construction, conjugacy, centralizers,
subgroup lattices and commuting-tuple orbits.

Elements are indices 0..order-1 with a full multiplication table.  Indexing
is deterministic (permutation groups are sorted by permutation tuple), so
every downstream report is reproducible byte for byte.  A group's table
and labels are immutable after construction.  Derived data (conjugacy
classes, centralizers, the character table, subgroup tables and direct
products) is memoized in a dict owned by the group it is computed from,
and is freed with that group.  Every size cap is a field of one Limits
value, and every table entry and element index is an exact int.

One generating set per group, of at most log2 |G| elements, gives the classes
(orbits under conjugation by it) and Light's associativity test for a table
file.  Element orders come from one walk per cyclic subgroup.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    GroupInputError,
    HomomorphismError,
    NonCommutingTupleError,
    SizeLimitError,
)


class Limits(NamedTuple):
    """The size caps, each checked before the work it bounds.

    order bounds character tables and subgroup lattices; tuples bounds |G|^n
    and n in the commuting-tuple scan, and the order of a direct product;
    closure bounds the element count and permutation degree of a built group,
    so a multiplication table has at most closure**2 cells.
    """

    order: int = 48
    tuples: int = 4096
    closure: int = 10000

    def check_size(self, n: int, what: str = "degree") -> None:
        # a permutation group of degree d stores each element as a d-tuple, a
        # builtin with parameter k has at least k elements (cyclic:k is a k x k
        # table) and a 'table n' file has n, so the closure cap bounds each
        # before anything is allocated
        if n > self.closure:
            raise SizeLimitError(f"{what} {n} exceeds the size cap of {self.closure}")

    def check_closure(self, found: int) -> None:
        """Called before adding one more element to a closure of found elements."""
        if found >= self.closure:
            raise SizeLimitError(f"closure exceeds the size cap of {self.closure} elements")

    def check_order(self, G: GroupTable, what: str) -> None:
        if G.order > self.order:
            raise SizeLimitError(f"{what} capped at order {self.order}, group has {G.order}")

    def check_tuples(self, order: int, n: int) -> None:
        cap = self.tuples
        # For order >= 2, n > cap.bit_length() already gives order^n >= 2^n > cap,
        # so the power is only formed when it is small.
        if order > 1 and (n > cap.bit_length() or order**n > cap):
            raise SizeLimitError(f"|G|^n = {order}^{n} exceeds the tuple scan cap {cap}")
        if n > cap:
            raise SizeLimitError(f"n = {n} exceeds the tuple scan cap {cap}")

    def check_product(self, order: int) -> None:
        if order > self.tuples:
            raise SizeLimitError(f"product order {order} exceeds cap {self.tuples}")


class GroupTable:
    """A finite group on element indices 0..order-1."""

    def __init__(
        self,
        mul_table: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: str = "",
        perms: Optional[Sequence[tuple[int, ...]]] = None,
        validate: bool = False,
    ):
        n = len(mul_table)
        if n == 0:
            raise GroupInputError("group must have at least one element")
        elements = tuple(range(n))  # every cell refers to one of these n int objects
        table = []
        for i, row in enumerate(mul_table):  # exact ints only: int() would pass 1.7, "1" and True
            if len(row) != n or {*map(type, row)} != {int} or min(row) < 0 or max(row) >= n:
                raise GroupInputError(f"multiplication table row {i} malformed")
            if len(set(row)) != n:
                raise GroupInputError(f"row {i} is not a permutation of the elements")
            table.append(tuple(map(elements.__getitem__, row)))
        for j, column in enumerate(zip(*table)):
            if len(set(column)) != n:
                raise GroupInputError(f"column {j} is not a permutation of the elements")
        self.order = n
        self._mul = table = tuple(table)
        self._memo: dict = {}
        identity = table[0].index(0)  # row 0 is a permutation: the one e with 0 * e = 0
        if table[identity] != elements or any(row[identity] != x for x, row in enumerate(table)):
            raise GroupInputError("table has no two-sided identity")
        self.identity = identity
        self._inv = tuple(row.index(identity) for row in table)
        for a, b in enumerate(self._inv):
            if table[b][a] != identity:
                raise GroupInputError(f"element {a} has no two-sided inverse")
        if validate:  # Light: the g with (x g) y = x (g y) for all x, y are closed under products
            if any(table[table[x][g]] != tuple(map(table[x].__getitem__, table[g]))
                   for g in _generators(self) for x in elements):
                raise GroupInputError("table is not associative")
        orders = [0] * n
        for a in elements:  # one walk per cyclic subgroup: |a^k| = |a| / gcd(k, |a|)
            if not orders[a]:
                powers = [a]
                while powers[-1] != identity:
                    powers.append(table[powers[-1]][a])
                for k, x in enumerate(powers, 1):
                    orders[x] = len(powers) // gcd(k, len(powers))
        self.elem_orders = tuple(orders)
        if labels is None:
            labels = [f"x{i}" for i in range(n)]
        if len(labels) != n or len(set(labels)) != n:
            raise GroupInputError("labels must be distinct, one per element")
        self.labels = tuple(str(s) for s in labels)
        self.name = name or f"group{n}"
        self.perms = tuple(perms) if perms is not None else None
        self._label_index = {s: i for i, s in enumerate(self.labels)}

    # -- element operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inverse(self, a: int) -> int:
        return self._inv[a]

    def order_of(self, a: int) -> int:
        return self.elem_orders[a]

    def power(self, a: int, k: int) -> int:
        k %= self.elem_orders[a]
        x = self.identity
        for _ in range(k):
            x = self._mul[x][a]
        return x

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self._mul[self._mul[g][x]][self._inv[g]]

    def commutes(self, a: int, b: int) -> bool:
        return self._mul[a][b] == self._mul[b][a]

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise KeyError(f"no element labelled {label!r} in {self.name}") from None

    # -- whole-group queries -------------------------------------------------

    def is_abelian(self) -> bool:
        gens = _generators(self)
        return all(self.commutes(a, b) for a in gens for b in gens)

    def exponent(self) -> int:
        return lcm(*self.elem_orders) if self.order > 1 else 1

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


# -- permutations -----------------------------------------------------------


def parse_permutation(text: str, degree: Optional[int] = None) -> tuple[int, ...]:
    """Parse disjoint-cycle notation, e.g. '(1 2)(3 4)', '(12)(34)' or '()'.

    Points are 1-based in the text.  Multi-digit points need space or comma
    separators inside a cycle.
    """
    text = text.strip()
    if not re.fullmatch(r"(\(\s*\)|\((\s*\d+[\s,]*)+\))+", text):
        raise GroupInputError(f"bad cycle notation: {text!r}")
    cycles: list[list[int]] = []
    for body in re.findall(r"\(([^()]*)\)", text):
        body = body.strip()
        if not body:
            continue
        if re.search(r"[\s,]", body):
            points = [int(p) for p in re.split(r"[\s,]+", body) if p]
        else:
            points = [int(ch) for ch in body]
        if any(p < 1 for p in points) or len(set(points)) != len(points):
            raise GroupInputError(f"bad cycle {body!r}")
        cycles.append(points)
    maxpoint = max((p for cyc in cycles for p in cyc), default=0)
    deg = degree if degree is not None else maxpoint
    if maxpoint > deg:
        raise GroupInputError(f"cycle uses point {maxpoint} beyond degree {deg}")
    perm = list(range(deg))
    seen: set[int] = set()
    for cyc in cycles:
        if seen.intersection(cyc):
            raise GroupInputError(f"cycles are not disjoint in {text!r}")
        seen.update(cyc)
        for i, p in enumerate(cyc):
            perm[p - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(perm)


def cycle_label(perm: Sequence[int]) -> str:
    """Disjoint-cycle notation for a 0-based permutation tuple."""
    deg = len(perm)
    seen = [False] * deg
    spaced = deg > 9
    parts = []
    for start in range(deg):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        pts = [str(p + 1) for p in cyc]
        parts.append("(" + (" ".join(pts) if spaced else "".join(pts)) + ")")
    return "".join(parts) if parts else "()"


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


def group_from_generators(
    generators: Iterable[Sequence[int]],
    degree: Optional[int] = None,
    name: str = "",
    limits: Limits = Limits(),
) -> GroupTable:
    """Closure of a set of permutations under composition.

    Generators are 0-based permutation tuples on a common point set; the
    closure is capped at limits.closure elements, and so is the degree.
    """
    gens = [tuple(g) for g in generators]
    if degree is None:
        degree = max((len(g) for g in gens), default=1)
    limits.check_size(degree)
    padded = []
    for g in gens:
        if any(type(x) is not int for x in g) or sorted(g) != list(range(len(g))):
            raise GroupInputError(f"generator {g} is not a bijection")
        if len(g) > degree:
            raise GroupInputError("generator degree exceeds requested degree")
        padded.append(tuple(g) + tuple(range(len(g), degree)))
    ident = tuple(range(degree))
    found = {ident}
    queue = [ident]
    for p in queue:  # grows until it holds the closure
        for g in padded:
            q = _compose(p, g)
            if q not in found:
                limits.check_closure(len(found))
                found.add(q)
                queue.append(q)
    perms = sorted(found)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_compose(p, q)] for q in perms] for p in perms]
    labels = [cycle_label(p) for p in perms]
    return GroupTable(table, labels=labels, name=name or f"perm{degree}", perms=perms)


# -- builtin groups ----------------------------------------------------------


def cyclic_group(k: int) -> GroupTable:
    if k < 1:
        raise GroupInputError("cyclic order must be positive")
    elements = list(range(k))
    table = [elements[i:] + elements[:i] for i in range(k)]
    labels = ["e"] + [f"g{i}" for i in range(1, k)]
    return GroupTable(table, labels=labels, name=f"cyclic:{k}")


def symmetric_group(k: int, limits: Limits = Limits()) -> GroupTable:
    if k < 1:
        raise GroupInputError("symmetric degree must be positive")
    gens = []
    if k >= 2:
        gens.append(parse_permutation("(1 2)", k))
    if k >= 3:
        gens.append(tuple(list(range(1, k)) + [0]))  # the k-cycle (1 2 ... k)
    return group_from_generators(gens, degree=k, name=f"symmetric:{k}", limits=limits)


def alternating_group(k: int, limits: Limits = Limits()) -> GroupTable:
    gens = [parse_permutation(f"(1 2 {m})", k) for m in range(3, k + 1)]
    return group_from_generators(gens, degree=max(k, 1), name=f"alternating:{k}", limits=limits)


def dihedral_group(k: int, limits: Limits = Limits()) -> GroupTable:
    """Symmetries of the regular k-gon, order 2k, as permutations of vertices."""
    if k < 3:
        raise GroupInputError("dihedral takes k >= 3 (use cyclic:2 for order 2)")
    rot = tuple(list(range(1, k)) + [0])
    refl = tuple(k - 1 - i for i in range(k))
    return group_from_generators([rot, refl], degree=k, name=f"dihedral:{k}", limits=limits)


def quaternion_group() -> GroupTable:
    """The quaternion group of order 8 on units {±1, ±i, ±j, ±k}."""
    units = ["1", "i", "j", "k"]
    # ax * bx -> (sign, unit) for the unit parts
    rule = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    elems = [(s, u) for u in units for s in (1, -1)]
    elems.sort(key=lambda e: (units.index(e[1]), -e[0]))
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for sa, ua in elems:
        row = []
        for sb, ub in elems:
            s, u = rule[(ua, ub)]
            row.append(index[(sa * sb * s, u)])
        table.append(row)
    labels = [("" if s > 0 else "-") + u for s, u in elems]
    return GroupTable(table, labels=labels, name="quaternion8")


_BUILTIN_RE = re.compile(r"(cyclic|symmetric|alternating|dihedral):(\d+)$")


def build_group(spec: str, limits: Limits = Limits()) -> GroupTable:
    """Resolve a builtin name (cyclic:k, dihedral:k, symmetric:k,
    alternating:k, quaternion8) or a group definition file path."""
    spec = spec.strip()
    if spec == "quaternion8":
        return quaternion_group()
    m = _BUILTIN_RE.fullmatch(spec)
    if m:
        kind, k = m.group(1), int(m.group(2))
        limits.check_size(k)
        if kind == "cyclic":
            return cyclic_group(k)
        if kind == "symmetric":
            return symmetric_group(k, limits)
        if kind == "alternating":
            return alternating_group(k, limits)
        return dihedral_group(k, limits)
    path = Path(spec)
    if path.exists():
        return load_group_file(path, limits)
    raise GroupInputError(f"unknown group spec {spec!r} (not a builtin, not a file)")


def load_group_file(path: Path | str, limits: Limits = Limits()) -> GroupTable:
    """Load a group from a definition file.

    Format A: 'perm <degree>' then one generator per line in cycle notation.
    Format B: 'table <n>' then n rows of n space-separated indices.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupInputError(f"{path}: cannot read group file ({exc})") from None
    numbered = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    numbered = [(i, ln) for i, ln in numbered if ln and not ln.startswith("#")]
    if not numbered:
        raise GroupInputError(f"{path}: empty group file")

    def integers(i: int, words: Sequence[str]) -> list[int]:
        try:
            return [int(w) for w in words]
        except ValueError:
            text = " ".join(words)
            raise GroupInputError(f"{path}:{i}: expected integers, got {text!r}") from None

    head_line, head = numbered[0][0], numbered[0][1].split()
    if head[0] == "perm" and len(head) == 2:
        (degree,) = integers(head_line, head[1:])
        if degree < 1:
            raise GroupInputError(f"{path}:{head_line}: permutation degree must be positive")
        limits.check_size(degree)
        gens = [parse_permutation(ln, degree) for _, ln in numbered[1:]]
        return group_from_generators(gens, degree=degree, name=path.stem, limits=limits)
    if head[0] == "table" and len(head) == 2:
        (n,) = integers(head_line, head[1:])
        if n < 1:
            raise GroupInputError(f"{path}:{head_line}: table order must be positive")
        limits.check_size(n, "table order")
        if len(numbered) != n + 1:
            raise GroupInputError(f"{path}: expected {n} table rows")
        table = [integers(i, ln.split()) for i, ln in numbered[1:]]
        return GroupTable(table, name=path.stem, validate=True)
    raise GroupInputError(f"{path}: first line must be 'perm <degree>' or 'table <n>'")


# -- conjugacy ----------------------------------------------------------------


class ConjugacyClass(NamedTuple):
    rep: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def conjugacy_classes(G: GroupTable) -> tuple[ConjugacyClass, ...]:
    """Conjugacy classes, sorted by their least element (the representative)."""
    if "classes" in G._memo:
        return G._memo["classes"]
    gens = _generators(G)
    class_of: list[Optional[int]] = [None] * G.order
    classes = []
    for a in range(G.order):
        if class_of[a] is None:
            class_of[a] = len(classes)
            members = [a]
            for x in members:  # grows until it holds the class of a
                for g in gens:
                    y = G.conjugate(g, x)
                    if class_of[y] is None:
                        class_of[y] = len(classes)
                        members.append(y)
            classes.append(ConjugacyClass(rep=a, members=tuple(sorted(members))))
    G._memo["class_of"] = tuple(class_of)
    G._memo["classes"] = tuple(classes)
    return G._memo["classes"]


def class_index_map(G: GroupTable) -> tuple[int, ...]:
    """Element index -> index of its conjugacy class."""
    conjugacy_classes(G)
    return G._memo["class_of"]


# -- subgroups -----------------------------------------------------------------


class Subgroup(NamedTuple):
    parent: GroupTable
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _closure(G: GroupTable, gens: Sequence[int]) -> tuple[int, ...]:
    found = {G.identity}
    queue = [G.identity]
    for x in queue:  # grows until it holds the closure
        for g in gens:
            y = G.mul(x, g)
            if y not in found:
                found.add(y)
                queue.append(y)
    return tuple(sorted(found))


def _generators(G: GroupTable) -> tuple[int, ...]:
    """Each element not yet generated by those before it, memoized on G.  Each
    one at least doubles the subgroup generated so far (Lagrange), so a group
    of order n has at most log2(n), and a table that needs more is no group."""
    if "generators" not in G._memo:
        gens: list[int] = []
        inside = {G.identity}
        for a in range(G.order):
            if a not in inside:
                if len(gens) == G.order.bit_length() - 1:
                    raise GroupInputError("table is not associative")
                gens.append(a)
                inside = set(_closure(G, gens))
        G._memo["generators"] = tuple(gens)
    return G._memo["generators"]


def _check_elements(G: GroupTable, elements: Iterable[int]) -> tuple[int, ...]:
    """The elements as a tuple, each checked to be an int index of G (bool is not)."""
    elements = tuple(elements)
    for a in elements:
        if type(a) is not int:
            raise GroupInputError(f"element index {a!r} is not an int")
        if not 0 <= a < G.order:
            raise GroupInputError(f"element index {a} out of range")
    return elements


def subgroup_from_generators(G: GroupTable, gens: Iterable[int]) -> Subgroup:
    gens = tuple(sorted(set(_check_elements(G, gens))))
    return Subgroup(parent=G, elements=_closure(G, gens), generators=gens)


def trivial_subgroup(G: GroupTable) -> Subgroup:
    return Subgroup(parent=G, elements=(G.identity,), generators=())


def centralizer(G: GroupTable, entries: Sequence[int] | "CommTuple") -> Subgroup:
    """The joint centralizer of a tuple, memoized on G; its generators are all its elements."""
    if isinstance(entries, CommTuple):
        entries = entries.entries
    key = ("centralizer", frozenset(_check_elements(G, entries)))
    if key not in G._memo:
        mul = G._mul
        G._memo[key] = tuple(
            a for a in range(G.order) if all(mul[a][s] == mul[s][a] for s in key[1])
        )
    elems = G._memo[key]
    return Subgroup(parent=G, elements=elems, generators=elems)


def subgroups(G: GroupTable, limits: Limits = Limits()) -> tuple[Subgroup, ...]:
    """All subgroups, sorted by (order, element tuple)."""
    limits.check_order(G, "subgroup lattice")
    triv = (G.identity,)
    found: dict[tuple[int, ...], tuple[int, ...]] = {triv: ()}
    frontier = [triv]
    while frontier:
        nxt = []
        for elems in frontier:
            gens = found[elems]
            inside = set(elems)
            for g in range(G.order):
                if g in inside:
                    continue
                new_gens = tuple(sorted(set(gens) | {g}))
                new_elems = _closure(G, new_gens)
                if new_elems not in found:
                    found[new_elems] = new_gens
                    nxt.append(new_elems)
        frontier = nxt
    out = [
        Subgroup(parent=G, elements=elems, generators=found[elems])
        for elems in sorted(found, key=lambda t: (len(t), t))
    ]
    return tuple(out)


def contains_conjugate(G: GroupTable, gamma: Subgroup, H: Subgroup) -> bool:
    """True iff some conjugate b^-1 * gamma * b lies inside H."""
    hset = set(H.elements)
    gens = gamma.generators if gamma.generators else gamma.elements
    for b in range(G.order):
        binv = G.inverse(b)
        if all(G.mul(G.mul(binv, g), b) in hset for g in gens):
            return True
    return False


# -- commuting tuples ----------------------------------------------------------


class CommTuple(NamedTuple):
    entries: tuple[int, ...]
    orders: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.entries)


def make_comm_tuple(G: GroupTable, entries: Sequence[int]) -> CommTuple:
    entries = _check_elements(G, entries)
    if len(entries) < 1:
        raise NonCommutingTupleError("a commuting tuple needs at least one entry")
    # Only distinct entries can fail to commute.  In first-occurrence order
    # the first failing pair is the one an all-pairs scan would meet first.
    distinct = tuple(dict.fromkeys(entries))
    for i, a in enumerate(distinct):
        for b in distinct[i + 1 :]:
            if not G.commutes(a, b):
                raise NonCommutingTupleError(
                    f"{G.label(a)} and {G.label(b)} do not commute in {G.name}"
                )
    return CommTuple(entries=entries, orders=tuple(G.order_of(x) for x in entries))


class TupleOrbit(NamedTuple):
    representative: CommTuple
    orbit_size: int


def commuting_tuples(G: GroupTable, n: int, limits: Limits = Limits()) -> tuple[TupleOrbit, ...]:
    """Orbits of simultaneous conjugation on pairwise-commuting n-tuples.

    The representative of each orbit is its lexicographically least member.
    The orbits with first entry conjugate to s are those of C(s) on commuting
    (n-1)-tuples in C(s), so the classes of the centralizers C_G(prefix), each
    sorted by least element in G's order, give the representatives in lex
    order, and the orbit of sigma has |G| / |C(sigma)| members.
    Raises SizeLimitError when |G|^n or n itself exceeds limits.tuples.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be an int >= 1")
    limits.check_tuples(G.order, n)
    orbits: list[TupleOrbit] = []

    def descend(prefix: tuple[int, ...]) -> None:
        # H is C_G(prefix) as its own table, to_G maps its indices into G.  For
        # s in H, C_H(s) = C_G(prefix + (s,)), so every centralizer is taken in
        # G and memoized there.  H is trivial only when G is; filling in the
        # identity keeps depth 0 for any n.
        H, to_G = subgroup_table(centralizer(G, prefix))
        if len(prefix) == n or H.order == 1:
            entries = prefix + (G.identity,) * (n - len(prefix))
            sigma = CommTuple(entries=entries, orders=tuple(G.order_of(x) for x in entries))
            orbits.append(TupleOrbit(representative=sigma, orbit_size=G.order // H.order))
            return
        for cls in conjugacy_classes(H):
            descend(prefix + (to_G[cls.rep],))

    descend(())
    return tuple(orbits)


# -- subgroup tables and homomorphisms -------------------------------------------


def subgroup_table(sub: Subgroup) -> tuple[GroupTable, tuple[int, ...]]:
    """Re-index a subgroup as a standalone GroupTable.

    Returns (table, to_parent) where to_parent maps the new indices back to
    parent element indices.  Labels are inherited from the parent.  A proper
    subgroup's table is memoized on the parent; the whole group is returned
    as itself, with the identity map, so it shares the parent's own memo.
    """
    G, elements = sub.parent, sub.elements
    if len(elements) == G.order:
        return G, tuple(range(G.order))
    key = ("subgroup", elements)
    if key not in G._memo:
        index = {x: i for i, x in enumerate(elements)}
        table = [[index[G.mul(a, b)] for b in elements] for a in elements]
        labels = [G.label(x) for x in elements]
        G._memo[key] = GroupTable(table, labels=labels, name=f"{G.name}<{len(elements)}>")
    return G._memo[key], elements


class Homomorphism(NamedTuple):
    source: GroupTable
    target: GroupTable
    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]


def hom_from_images(
    source: GroupTable,
    gens: Sequence[int],
    images: Sequence[int],
    target: GroupTable,
) -> Homomorphism:
    """Extend generator images to a homomorphism, verifying multiplicativity.

    The search checks f(x g) = f(x) f(g) for every element x and generator g.
    By induction on words, f(x w) = f(x) f(w) for every word w in the
    generators, and in a finite group every element is such a word: no pass
    over pairs of elements is needed.
    """
    if len(gens) != len(images):
        raise HomomorphismError("need one image per generator")
    _check_elements(source, gens)
    _check_elements(target, images)
    full: list[Optional[int]] = [None] * source.order
    full[source.identity] = target.identity
    queue = [source.identity]
    for x in queue:  # grows until it holds every element reached
        fx = full[x]
        assert fx is not None
        for g, img in zip(gens, images):
            y = source.mul(x, g)
            fy = target.mul(fx, img)
            if full[y] is None:
                full[y] = fy
                queue.append(y)
            elif full[y] != fy:
                raise HomomorphismError("generator images are inconsistent")
    if any(v is None for v in full):
        raise HomomorphismError("generators do not generate the source group")
    return Homomorphism(source=source, target=target, images=tuple(full))  # type: ignore[arg-type]


def inclusion_hom(sub: Subgroup) -> tuple[Homomorphism, GroupTable]:
    """The inclusion of a subgroup (re-indexed as its own table) into the parent."""
    table, to_parent = subgroup_table(sub)
    return Homomorphism(source=table, target=sub.parent, images=to_parent), table


def direct_product(G: GroupTable, H: GroupTable) -> GroupTable:
    """Direct product with indices packed as a*|H| + b and labels '(la,lb)'.

    Its order is capped at Limits().tuples.  Memoized on G per second factor,
    so repeated products share one instance (and its memoized class/table data).
    """
    Limits().check_product(G.order * H.order)
    key = ("product", H)
    if key in G._memo:
        return G._memo[key]
    n_h = H.order
    table = []
    for a1 in range(G.order):
        for b1 in range(n_h):
            row = []
            for a2 in range(G.order):
                for b2 in range(n_h):
                    row.append(G.mul(a1, a2) * n_h + H.mul(b1, b2))
            table.append(row)
    labels = [f"({G.label(a)},{H.label(b)})" for a in range(G.order) for b in range(n_h)]
    G._memo[key] = GroupTable(table, labels=labels, name=f"{G.name}x{H.name}")
    return G._memo[key]
