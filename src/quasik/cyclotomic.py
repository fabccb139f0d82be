"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored in canonical form: its coefficients over the power basis
zeta_N^0, ..., zeta_N^{phi(N)-1} after reduction modulo the N-th cyclotomic
polynomial, at the least conductor N.  Nothing is ever divided: values
built from integers have int coefficients, Fractions enter only with a
Fraction input, and no float can arise.  The least conductor is found by
descending one prime of N at a time, with a subfield test read off the
coefficients.  Canonical forms are unique, so equality, hashing and
multiset comparisons are structural.

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


@lru_cache(maxsize=None)
def _primes(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n in increasing order."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _polydiv_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    # den is monic and divides num: Phi_m(x^p) = Phi_pm(x) Phi_m(x) for a prime p not dividing m
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic.

    For n = p * m with p prime, Phi_n(x) is Phi_m(x^p) when p divides m and
    Phi_m(x^p) / Phi_m(x) otherwise.
    """
    if n == 1:
        return (-1, 1)
    p = _primes(n)[0]
    m = n // p
    inner = cyclotomic_polynomial(m)
    spread = [0] * ((len(inner) - 1) * p + 1)
    spread[::p] = inner
    return tuple(spread) if m % p == 0 else _polydiv_exact(spread, inner)


def _reduce(n: int, dense: list[Rational]) -> tuple[Rational, ...]:
    """Reduce a dense coefficient list modulo the n-th cyclotomic polynomial.

    The polynomial is monic, so nothing is divided and integers stay integers.
    """
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    for i in range(len(dense) - 1, phi - 1, -1):
        c = dense[i]
        if c:
            for j in range(phi):
                dense[i - phi + j] -= c * poly[j]
    return tuple(dense[:phi]) + (0,) * (phi - len(dense))


def _descend(n: int, p: int, coeffs: tuple[Rational, ...]) -> Optional[tuple[Rational, ...]]:
    """Coordinates at n/p of a value canonical at n, or None if it is not in Q(zeta_{n/p})."""
    m = n // p
    if m % p == 0:
        # Phi_n(x) = Phi_m(x^p): Q(zeta_m) is spanned by the basis powers divisible by p.
        if any(c for k, c in enumerate(coeffs) if k % p):
            return None
        return coeffs[::p]
    # zeta_n^k = zeta_p^(k*a) * zeta_m^(k*b), so the value is the sum of w_j * zeta_p^j
    # with w_j in Q(zeta_m), that is the sum of (w_j - w_0) * zeta_p^j for j >= 1.  These
    # zeta_p^j are a basis over Q(zeta_m) and sum to -1, so the value lies in Q(zeta_m)
    # iff every w_j - w_0 is the same, and then it is w_0 - w_1.
    a, b = pow(m, -1, p), pow(p, -1, m)
    w = [[0] * m for _ in range(p)]
    for k, c in enumerate(coeffs):
        if c:
            w[k * a % p][k * b % m] += c
    diffs = (_reduce(m, [x - y for x, y in zip(row, w[0])]) for row in w[1:])
    first = next(diffs)
    if any(d != first for d in diffs):
        return None
    return tuple(-c for c in first)


def _minimize(n: int, coeffs: tuple[Rational, ...]) -> tuple[int, tuple[Rational, ...]]:
    """The least conductor of a value canonical at n, and its coordinates there.

    The fields containing the value are the Q(zeta_d) for the multiples d of
    its conductor, so it descends one prime of n at a time; a prime that fails
    once fails at every lower level.
    """
    if not any(coeffs[1:]):
        return 1, coeffs[:1]
    for p in _primes(n):
        while n % p == 0:
            sub = _descend(n, p, coeffs)
            if sub is None:
                break
            n, coeffs = n // p, sub
    return n, coeffs


class Cyc:
    """An element of some cyclotomic field, in canonical minimized form."""

    __slots__ = ("_n", "_c")

    def __init__(self, value: Rational = 0):
        if isinstance(value, float):
            raise TypeError("floats are not allowed; use Fraction or int")
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"Cyc takes an int or a Fraction, not {type(value).__name__}")
        self._n = 1
        self._c = (int(value) if isinstance(value, int) else value,)

    # -- construction ----------------------------------------------------

    @staticmethod
    def _make(n: int, coeffs: tuple[Rational, ...]) -> "Cyc":
        z = object.__new__(Cyc)
        z._n = n
        z._c = coeffs
        return z

    @staticmethod
    def _normalize(n: int, dense: list[Rational]) -> "Cyc":
        coeffs = _reduce(n, dense)
        n, coeffs = _minimize(n, coeffs)
        return Cyc._make(n, coeffs)

    @staticmethod
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
    def coeffs(self) -> tuple[Rational, ...]:
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
        return Fraction(self._c[0])

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

    conjugate = conj  # the name int and Fraction give it, so that any exact number conjugates alike

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            raise ValueError("only non-negative powers are defined")
        result = Cyc(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
