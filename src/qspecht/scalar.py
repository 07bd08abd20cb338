"""Exact scalar arithmetic in the deformation parameter q.

Two ground domains are supported:

* generic -- integer Laurent polynomials in q.  Negative powers are
  first-class so that units such as (-q)^-3 stay exact.
* root of unity -- the field Q[q]/(Phi_p), where Phi_p is the p-th
  cyclotomic polynomial.  There q is a primitive p-th root of unity and
  every nonzero element is invertible (Phi_p is irreducible over Q).

Scalars are immutable canonical values: no zero coefficients are stored,
cyclotomic residues are fully reduced, equality is decidable and hashing
is safe.  The string grammar renders terms in increasing exponent order
("-1 + q^2 - q^3", exponent 0 as a bare integer, exponent 1 as "q") and
`parse` accepts the same grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union


def _format_terms(items) -> str:
    # items: [(exponent, coefficient)] sorted by increasing exponent
    if not items:
        return "0"
    parts = []
    for e, c in items:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            body = qpart if mag == 1 else f"{mag}{qpart}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def _scan_terms(text: str) -> list[tuple[Fraction, int]]:
    """Tokenize the scalar grammar into (coefficient, exponent) pairs."""
    s = text.strip()
    if s == "0":
        return []
    terms: list[tuple[Fraction, int]] = []
    pos, n = 0, len(s)
    first = True
    while pos < n:
        while pos < n and s[pos] == " ":
            pos += 1
        if pos >= n:
            break
        sign = 1
        if s[pos] in "+-":
            if first and s[pos] == "+":
                raise ValueError(f"unexpected leading '+' in scalar {text!r}")
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            while pos < n and s[pos] == " ":
                pos += 1
        elif not first:
            raise ValueError(f"missing '+'/'-' between terms in scalar {text!r}")
        start = pos
        while pos < n and (s[pos].isdigit() or s[pos] == "/"):
            pos += 1
        coeff_text = s[start:pos]
        exponent = 0
        has_q = False
        if pos < n and s[pos] == "q":
            has_q = True
            exponent = 1
            pos += 1
            if pos < n and s[pos] == "^":
                pos += 1
                estart = pos
                if pos < n and s[pos] == "-":
                    pos += 1
                while pos < n and s[pos].isdigit():
                    pos += 1
                if pos == estart:
                    raise ValueError(f"missing exponent in scalar {text!r}")
                exponent = int(s[estart:pos])
        if not coeff_text and not has_q:
            raise ValueError(f"cannot parse scalar {text!r}")
        coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        terms.append((sign * coeff, exponent))
        first = False
    return terms


class LaurentScalar:
    """Integer Laurent polynomial in q, canonical (no zero coefficients).

    >>> q = LaurentScalar.q_power(1)
    >>> str((q - 1) * (q + 1))
    '-1 + q^2'
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[dict, int] = 0):
        if isinstance(terms, int):
            terms = {0: terms}
        self._terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def q_power(cls, exponent: int) -> "LaurentScalar":
        return cls({exponent: 1})

    @classmethod
    def neg_q_power(cls, exponent: int) -> "LaurentScalar":
        """The unit (-q)^exponent, for any integer exponent."""
        return cls({exponent: -1 if exponent % 2 else 1})

    @classmethod
    def parse(cls, text: str) -> "LaurentScalar":
        terms: dict[int, int] = {}
        for coeff, e in _scan_terms(text):
            if coeff.denominator != 1:
                raise ValueError(f"non-integer coefficient in Laurent scalar {text!r}")
            terms[e] = terms.get(e, 0) + int(coeff)
        return cls(terms)

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentScalar(other)
        if isinstance(other, LaurentScalar):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentScalar(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if len(self._terms) != 1:
                raise ValueError("only monomial Laurent scalars are invertible")
            ((e, c),) = self._terms.items()
            if c not in (1, -1):
                raise ValueError("only unit Laurent scalars are invertible")
            return LaurentScalar({-e: c}) ** (-k)
        out = LaurentScalar(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentScalar(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __str__(self):
        return _format_terms(sorted(self._terms.items()))

    def __repr__(self):
        return f"LaurentScalar('{self}')"


def _poly_mul(a, b) -> list:
    """Product of two dense ascending coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_divmod(a: list, b) -> list:
    """Divide dense ascending `a` by `b` (nonzero leading coefficient).

    `a` is overwritten with the remainder, trailing zeros trimmed, and the
    quotient is returned.  A monic divisor needs no coefficient division,
    so integer inputs stay integers.
    """
    db = len(b) - 1
    lead = b[-1]
    monic = lead == 1
    quo = [0] * (len(a) - db)  # empty when a is already reduced
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] if monic else a[i] / lead
        if c:
            quo[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    while a and not a[-1]:
        a.pop()
    return quo


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(p: int) -> tuple[int, ...]:
    # dense ascending coefficients of Phi_p; Phi_1 = q - 1 seeds the recursion
    if p == 1:
        return (-1, 1)
    num = [-1] + [0] * (p - 1) + [1]
    for d in range(1, p):
        if p % d == 0:
            quo = _poly_divmod(num, _cyclotomic_coeffs(d))
            if num:
                raise ArithmeticError("inexact polynomial division")
            num = quo
    return tuple(num)


def cyclotomic_polynomial(p: int) -> LaurentScalar:
    """The p-th cyclotomic polynomial as a Laurent scalar (p >= 2)."""
    if p < 2:
        raise ValueError(f"cyclotomic polynomial needs p >= 2, got {p}")
    return LaurentScalar({e: c for e, c in enumerate(_cyclotomic_coeffs(p)) if c})


class CyclotomicScalar:
    """Residue of a rational polynomial in q modulo Phi_p (p >= 3).

    The reduced representative has degree < deg Phi_p, so the
    representation is unique; q^p = 1 holds exactly.
    """

    __slots__ = ("_p", "_coeffs")

    def __init__(self, p: int, coeffs=()):
        if p < 3:
            raise ValueError(f"root-of-unity order must be >= 3, got {p}")
        self._p = p
        cs = [Fraction(c) for c in coeffs]
        _poly_divmod(cs, _cyclotomic_coeffs(p))  # reduce modulo Phi_p in place
        self._coeffs = tuple(cs)

    @classmethod
    def from_int(cls, p: int, value: int) -> "CyclotomicScalar":
        return cls(p, (value,))

    @classmethod
    def q_power(cls, p: int, exponent: int) -> "CyclotomicScalar":
        e = exponent % p
        return cls(p, (0,) * e + (1,))

    @classmethod
    def neg_q_power(cls, p: int, exponent: int) -> "CyclotomicScalar":
        sign = -1 if exponent % 2 else 1
        e = exponent % p
        return cls(p, (0,) * e + (sign,))

    @classmethod
    def parse(cls, text: str, p: int) -> "CyclotomicScalar":
        coeffs: dict[int, Fraction] = {}
        for coeff, e in _scan_terms(text):
            e %= p
            coeffs[e] = coeffs.get(e, Fraction(0)) + coeff
        size = max(coeffs, default=-1) + 1
        dense = [coeffs.get(i, Fraction(0)) for i in range(size)]
        return cls(p, dense)

    @property
    def p(self) -> int:
        return self._p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check(self, other):
        if isinstance(other, int):
            return CyclotomicScalar.from_int(self._p, other)
        if not isinstance(other, CyclotomicScalar):
            return None
        if other._p != self._p:
            raise ValueError(f"mixed root-of-unity orders {self._p} and {other._p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        size = max(len(a), len(b))
        out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)]
        return CyclotomicScalar(self._p, out)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self._p, tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return CyclotomicScalar(self._p, _poly_mul(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if not self._coeffs:
            raise ZeroDivisionError("cyclotomic scalar is zero")
        # extended Euclid against Phi_p; the cofactor of self is only needed
        # modulo Phi_p, so it is kept as a residue
        old_r = [Fraction(c) for c in _cyclotomic_coeffs(self._p)]
        r = list(self._coeffs)
        old_t, t = CyclotomicScalar(self._p), CyclotomicScalar.from_int(self._p, 1)
        while r:
            quo = _poly_divmod(old_r, r)
            old_r, r = r, old_r
            old_t, t = t, old_t - CyclotomicScalar(self._p, quo) * t
        # old_r is a nonzero constant c because Phi_p is irreducible
        (c,) = old_r
        return CyclotomicScalar(self._p, [x / c for x in old_t._coeffs])

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = CyclotomicScalar.from_int(self._p, other)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self._p == other._p and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._p, self._coeffs))

    def __bool__(self):
        return bool(self._coeffs)

    def __str__(self):
        return _format_terms([(e, c) for e, c in enumerate(self._coeffs) if c])

    def __repr__(self):
        return f"CyclotomicScalar(p={self._p}, '{self}')"


def specialize(x: LaurentScalar, p: int) -> CyclotomicScalar:
    """Residue of a Laurent scalar at a primitive p-th root of unity.

    Negative powers are rewritten through q^p = 1 (so q^-1 becomes
    q^(p-1)) before reduction modulo Phi_p.  Requires p >= 3.
    """
    if p < 3:
        raise ValueError(f"specialization requires p >= 3, got {p}")
    dense = [Fraction(0)] * p
    for e, c in x.terms.items():
        dense[e % p] += c
    return CyclotomicScalar(p, dense)


@dataclass(frozen=True)
class ScalarDomain:
    """Ground domain tag: generic Laurent ring, or root of unity of order p.

    Every module and matrix computation is parameterized by exactly one
    domain; mixing scalars across domains raises.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and self.p < 3:
            raise ValueError(f"root-of-unity order must be >= 3, got {self.p}")

    @property
    def is_generic(self) -> bool:
        return self.p is None

    def zero(self):
        return LaurentScalar(0) if self.is_generic else CyclotomicScalar(self.p)

    def one(self):
        return self.from_int(1)

    def from_int(self, value: int):
        if self.is_generic:
            return LaurentScalar(value)
        return CyclotomicScalar.from_int(self.p, value)

    def q(self):
        return self.q_power(1)

    def q_power(self, exponent: int):
        if self.is_generic:
            return LaurentScalar.q_power(exponent)
        return CyclotomicScalar.q_power(self.p, exponent)

    def neg_q_power(self, exponent: int):
        if self.is_generic:
            return LaurentScalar.neg_q_power(exponent)
        return CyclotomicScalar.neg_q_power(self.p, exponent)

    def contains(self, x) -> bool:
        if self.is_generic:
            return isinstance(x, LaurentScalar)
        return isinstance(x, CyclotomicScalar) and x.p == self.p

    def parse(self, text: str):
        if self.is_generic:
            return LaurentScalar.parse(text)
        return CyclotomicScalar.parse(text, self.p)

    def __str__(self):
        return "generic" if self.is_generic else f"root-of-unity p={self.p}"


GENERIC = ScalarDomain()


def root_of_unity(p: int) -> ScalarDomain:
    return ScalarDomain(p)
