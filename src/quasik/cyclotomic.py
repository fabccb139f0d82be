"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored in canonical form: rational coefficients over the power
basis zeta_N^0, ..., zeta_N^{phi(N)-1} after reduction modulo the N-th
cyclotomic polynomial, with the conductor N minimized over all divisors.
Canonical forms are unique, so equality, hashing and multiset comparisons
are structural.  No floating point is used anywhere.

Every sum in Z[zeta_n] or Q(zeta_n) goes through one routine,
conj_product_sum: it collects the terms w * a * conj(b) by exponent in a
dense list and reduces that list once.  Cyc addition, multiplication and
Galois action are single calls to it, and so are the table verification and
the character sums in chartable and lambdarep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]
Exponents = tuple[tuple[int, Rational], ...]  # ((x, coefficient of zeta_n^x), ...)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _polydiv_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    # den is monic; division must be exact.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n == 1:
        return (-1, 1)
    poly: Sequence[int] = tuple([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce(n: int, dense: list[Rational]) -> tuple[Fraction, ...]:
    """Reduce a dense coefficient list modulo the n-th cyclotomic polynomial.

    The polynomial is monic, so an integer list is reduced in integers; the
    phi(n) coefficients left are returned as Fractions.
    """
    phi = totient(n)
    poly = cyclotomic_polynomial(n)
    for i in range(len(dense) - 1, phi - 1, -1):
        c = dense[i]
        if c:
            dense[i] = _ZERO
            for j in range(phi):
                dense[i - phi + j] -= c * poly[j]
    if len(dense) < phi:
        dense = dense + [_ZERO] * (phi - len(dense))
    return tuple(c if type(c) is Fraction else Fraction(c) for c in dense[:phi])


@lru_cache(maxsize=None)
def _subfield_basis(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical forms at conductor n of zeta_d^j for j < phi(d)."""
    step = n // d
    cols = []
    for j in range(totient(d)):
        dense = [_ZERO] * n
        dense[(step * j) % n] = _ONE
        cols.append(_reduce(n, dense))
    return tuple(cols)


def _solve_in_subfield(
    n: int, d: int, coeffs: tuple[Fraction, ...]
) -> Optional[tuple[Fraction, ...]]:
    """Express coeffs (canonical at n) over the basis of Q(zeta_d), if possible."""
    cols = _subfield_basis(n, d)
    rows = totient(n)
    width = len(cols)
    # Augmented matrix [cols | coeffs], solved by exact Gaussian elimination.
    mat = [[cols[j][i] for j in range(width)] + [coeffs[i]] for i in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, rows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if mat[i][width]:
            return None
    sol = [_ZERO] * width
    for i, c in enumerate(pivots):
        sol[c] = mat[i][width]
    return tuple(sol)


def _minimize(n: int, coeffs: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    if n == 1:
        return 1, coeffs
    if all(c == 0 for c in coeffs[1:]):
        return 1, (coeffs[0],)
    for d in divisors(n):
        if d < 3 or d == n:
            continue
        sol = _solve_in_subfield(n, d, coeffs)
        if sol is not None:
            return d, sol
    return n, coeffs


class Cyc:
    """An element of some cyclotomic field, in canonical minimized form."""

    __slots__ = ("_n", "_c")

    def __init__(self, value: Rational = 0):
        if isinstance(value, float):
            raise TypeError("floats are not allowed; use Fraction or int")
        q = Fraction(value)
        self._n = 1
        self._c = (q,)

    # -- construction ----------------------------------------------------

    @staticmethod
    def _make(n: int, coeffs: tuple[Fraction, ...]) -> "Cyc":
        z = object.__new__(Cyc)
        z._n = n
        z._c = coeffs
        return z

    @staticmethod
    def _normalize(n: int, dense: list[Fraction]) -> "Cyc":
        coeffs = _reduce(n, dense)
        n, coeffs = _minimize(n, coeffs)
        return Cyc._make(n, coeffs)

    @staticmethod
    @lru_cache(maxsize=None)
    def zeta(n: int, k: int = 1) -> "Cyc":
        """The root of unity e^(2*pi*i*k/n)."""
        if n < 1:
            raise ValueError("conductor must be positive")
        return conj_product_sum(((1, ((k, 1),), _UNIT),), n)

    # -- basic queries ----------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def is_zero(self) -> bool:
        return self._n == 1 and self._c[0] == 0

    @property
    def is_rational(self) -> bool:
        return self._n == 1

    def rational_value(self) -> Fraction:
        if self._n != 1:
            raise ValueError(f"{self!r} is not rational")
        return self._c[0]

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._c == o._c

    def __hash__(self) -> int:
        return hash((self._n, self._c))

    def sort_key(self) -> tuple:
        """Deterministic total order; rational 1 sorts before everything else."""
        if self._n == 1 and self._c[0] == 1:
            return (0,)
        return (1, self._n, self._c)

    # -- arithmetic -------------------------------------------------------

    def _exponents_at(self, m: int) -> Exponents:
        """Sparse form ((x, c), ...) over zeta_m, m a multiple of the conductor."""
        step = m // self._n
        return tuple((k * step, c) for k, c in enumerate(self._c) if c)

    def __add__(self, other) -> "Cyc":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        m = lcm(self._n, o._n)
        return conj_product_sum(
            ((1, self._exponents_at(m), _UNIT), (1, o._exponents_at(m), _UNIT)), m
        )

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc._make(self._n, tuple(-c for c in self._c))

    def __sub__(self, other) -> "Cyc":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Cyc":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Cyc":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o._n == 1:
            q = o._c[0]
            if q == 0:
                return Cyc(0)
            return Cyc._make(self._n, tuple(c * q for c in self._c))
        if self._n == 1:
            return o * self
        m = lcm(self._n, o._n)
        b = tuple((-y, d) for y, d in o._exponents_at(m))  # conj(conj(o)) = o
        return conj_product_sum(((1, self._exponents_at(m), b),), m)

    __rmul__ = __mul__

    def galois(self, j: int) -> "Cyc":
        """Apply the field automorphism zeta_n -> zeta_n^j (j coprime to n)."""
        n = self._n
        if gcd(j, n) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        a = tuple((k * j, c) for k, c in enumerate(self._c) if c)
        return conj_product_sum(((1, a, _UNIT),), n)

    def conj(self) -> "Cyc":
        """Complex conjugation."""
        if self._n == 1:
            return self
        return self.galois(self._n - 1)

    def inv(self) -> "Cyc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if self._n == 1:
            return Cyc(Fraction(1) / self._c[0])
        prod = Cyc(1)
        for j in range(2, self._n):
            if gcd(j, self._n) == 1:
                prod = prod * self.galois(j)
        norm = self * prod
        return prod * Cyc(Fraction(1) / norm.rational_value())

    def __truediv__(self, other) -> "Cyc":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero cyclotomic value")
        if o._n == 1:
            return self * Cyc(Fraction(1) / o._c[0])
        return self * o.inv()

    def __rtruediv__(self, other) -> "Cyc":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inv() ** (-k)
        result = Cyc(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def abs_squared(self) -> "Cyc":
        """|z|^2 = z * conj(z); always real (conjugation-fixed), and rational
        whenever z is a rational multiple of a root of unity."""
        return self * self.conj()

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Human-readable form: rationals as p/q, otherwise E(N)^k terms."""
        if self._n == 1:
            return str(self._c[0])
        parts: list[str] = []
        for k, c in enumerate(self._c):
            if not c:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                base = f"E({self._n})" if k == 1 else f"E({self._n})^{k}"
                term = base if abs(c) == 1 else f"{abs(c)}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Cyc({self.render()})"


_UNIT: Exponents = ((0, 1),)  # the value 1


def conj_product_sum(terms: Iterable[tuple[Rational, Exponents, Exponents]], n: int) -> Cyc:
    """The sum of w * a * conj(b) over terms (w, a, b), as a canonical Cyc.

    a and b are sparse exponent vectors ((x, c), ...) standing for the sum of
    c * zeta_n^x.  Each product w * c * d is added at exponent (x - y) mod n
    into one dense list that starts from the integer 0, so integer inputs
    stay integers, and the list is reduced and minimized once at the end.
    """
    dense: list[Rational] = [0] * n
    for w, a, b in terms:
        for x, c in a:
            for y, d in b:
                dense[(x - y) % n] += w * c * d
    return Cyc._normalize(n, dense)


def _coerce(value: object) -> Optional[Cyc]:
    if isinstance(value, Cyc):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyc(value)
    return None


@lru_cache(maxsize=None)
def _zeta_powers(l: int) -> tuple[Cyc, ...]:
    z = Cyc.zeta(l)
    powers = [Cyc(1)]
    for _ in range(l - 1):
        powers.append(powers[-1] * z)
    return tuple(powers)


def as_root_of_unity(c: Cyc, l: int) -> Optional[int]:
    """Return m with c = zeta_l^m and 0 < m <= l, mapping the value 1 to m = l.

    Returns None when c is not an l-th root of unity.
    """
    if l < 1:
        raise ValueError("order must be positive")
    powers = _zeta_powers(l)
    for m in range(1, l + 1):
        if c == powers[m % l]:
            return m
    return None
