"""Exact scalar arithmetic in the deformation parameter q.

Two ground domains are supported:

* generic -- integer Laurent polynomials in q (`LaurentScalar`).  Negative
  powers are first-class so that units such as (-q)^-3 stay exact.
* root of unity -- the field Q[q]/(Phi_p), where Phi_p is the p-th
  cyclotomic polynomial (`CyclotomicScalar`).  There q is a primitive p-th
  root of unity and every nonzero element is invertible (Phi_p is
  irreducible over Q).  Phi_p is monic, so everything that comes from
  Z[q, q^-1] stays in Z[zeta_p] with denominator 1 and its arithmetic runs
  on plain ints; only `inverse` brings in other denominators.

Both store one dense format, a lowest exponent and a tuple of integer
coefficients over a positive denominator, and share the arithmetic of the
private base class `_Polynomial`; `_poly_mul` is the package's one
polynomial product.  Each class has one constructor, `_make(low, coeffs,
den)`, which brings a fresh coefficient list to its canonical form: a
Laurent scalar trims the zeros at both ends; a residue turns q^low into
q^(low mod p), as q^p = 1, and reduces modulo Phi_p and by the gcd with its
denominator.  So `specialize` is one `_make` call.

`ScalarDomain` is the one factory: a domain keeps its unit scalar, and its
zero, integers, powers of q and `parse` are `_make` calls on that unit.
`LaurentScalar(terms)` and `CyclotomicScalar(p, coeffs)` check outside
input and hand it to the same `_make`.  Coefficients must be ints (or, for
residues, Fractions), and Laurent exponents ints; anything else, a float
included, raises TypeError.  An outside exponent span of more than
`MAX_SPAN` coefficients raises ValueError, as storage grows with the span,
and so does a root-of-unity order above `MAX_ORDER`.

Scalars are immutable canonical values, so equality is decidable.  A scalar
computes its hash once, on first use, and keeps it in a slot; a scalar equal
to the integer c hashes as hash(c), so scalars and ints are interchangeable
dict keys.  `fold` is the one multiply-accumulate of the package: every sparse
sum of scaled vectors, in the action engine and in the echelon, goes through
it.  The string grammar renders terms in increasing exponent order
("-1 + q^2 - q^3", exponent 0 as a bare integer, exponent 1 as "q") and
`ScalarDomain.parse` accepts the same grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

# the widest exponent span, in coefficients, accepted from outside input;
# the package's own exponents stay within about n^2
MAX_SPAN = 2**16
# the largest root-of-unity order: Phi_p and the reduction modulo it grow
# with p, and H_n(q) is already semisimple at every order p > n
MAX_ORDER = 1024


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
    if not s:
        raise ValueError(f"cannot parse scalar {text!r}")
    if s == "0":
        return []
    terms: list[tuple[Fraction, int]] = []
    pos, n = 0, len(s)
    first = True
    while pos < n:
        while pos < n and s[pos] == " ":
            pos += 1
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
        try:
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None
        terms.append((sign * coeff, exponent))
        first = False
    return terms


def _dense(pairs) -> tuple[int, list]:
    """Lowest exponent and dense ascending coefficients of (exponent,
    coefficient) pairs, a repeated exponent summed; ValueError on a span of
    more than MAX_SPAN coefficients."""
    pairs = [(e, c) for e, c in pairs if c]
    low = min((e for e, _ in pairs), default=0)
    span = max((e for e, _ in pairs), default=low - 1) + 1 - low
    if span > MAX_SPAN:
        raise ValueError(f"exponent span of {span} coefficients exceeds {MAX_SPAN}")
    cs = [0] * span
    for e, c in pairs:
        cs[e - low] += c
    return low, cs


def _poly_mul(a, b) -> list:
    """Product of two dense ascending coefficient sequences, as a list.

    A one-element factor scales the other one; as Z has no zero divisors, an
    integer product keeps both end coefficients nonzero.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b]
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


class _Polynomial:
    """The arithmetic that Laurent scalars and residues share.

    A value is q^_low * (c_0 + c_1 q + ... + c_k q^k) / _den, where _coeffs is
    the tuple (c_0, ..., c_k) of ints with c_k nonzero, _den is a positive int
    and zero is _low 0 with _coeffs ().  _p is the root-of-unity order, None
    for a Laurent scalar.  A subclass supplies `_make(low, coeffs, den)`, its
    only constructor, which brings a fresh coefficient list to the canonical
    form of the domain of self, and `_coerce`, which converts an operand or
    returns None for a foreign one.
    """

    __slots__ = ("_p", "_low", "_coeffs", "_den", "_hash")

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self):
        return bool(self._coeffs)

    def _sum(self, other, sign: int):
        """self + sign * other, on aligned offsets over the product of the
        denominators."""
        # an operand of the same class and order skips _coerce
        if type(other) is not type(self) or other._p != self._p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b, den = self._coeffs, other._coeffs, self._den
        if den != other._den:
            a = [c * other._den for c in a]
            b = [c * den for c in b]
            den *= other._den
        low = self._low
        shift = other._low - low
        if shift < 0:
            low, shift, a = other._low, 0, [0] * -shift + list(a)
        out = list(a) + [0] * (shift + len(b) - len(a))
        for i, c in enumerate(b, shift):
            out[i] += sign * c
        return self._make(low, out, den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other._sum(self, -1)

    def __neg__(self):
        return self._make(self._low, [-c for c in self._coeffs], self._den)

    def __mul__(self, other):
        if type(other) is not type(self) or other._p != self._p:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._make(self._low + other._low, _poly_mul(self._coeffs, other._coeffs),
                          self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return (self._coeffs == ((other,) if other else ()) and self._low == 0
                    and self._den == 1)
        if type(other) is not type(self):
            return NotImplemented
        return (self._coeffs == other._coeffs and self._low == other._low
                and self._den == other._den and self._p == other._p)

    def __hash__(self):
        # computed on first use; a constant c hashes as hash(c), as it equals c
        try:
            return self._hash
        except AttributeError:
            cs = self._coeffs
            if len(cs) <= 1 and self._low == 0 and self._den == 1:
                self._hash = hash(cs[0] if cs else 0)
            else:
                self._hash = hash((self._p, self._low, cs, self._den))
            return self._hash

    def __str__(self):
        den = self._den
        return _format_terms([(e, c if den == 1 else Fraction(c, den))
                              for e, c in enumerate(self._coeffs, self._low) if c])


class LaurentScalar(_Polynomial):
    """Integer Laurent polynomial in q, canonical (no zero end coefficients).

    >>> q = GENERIC.q()
    >>> str((q - 1) * (q + 1))
    '-1 + q^2'
    """

    __slots__ = ()

    def __new__(cls, terms: Union[dict, int] = 0):
        if isinstance(terms, int):
            return GENERIC.from_int(terms)
        if not isinstance(terms, dict):
            raise TypeError(f"a Laurent scalar is made from an int or a dict, not {terms!r}")
        for e, c in terms.items():
            if not isinstance(e, int):
                raise TypeError(f"Laurent exponent {e!r} is not an int")
            if not isinstance(c, int):
                raise TypeError(f"Laurent coefficient {c!r} is not an int")
        return GENERIC._unit._make(*_dense(terms.items()), 1)

    def _make(self, low, cs, den):
        # den is 1 for every Laurent scalar; only the zero ends are trimmed
        if not (cs and cs[0] and cs[-1]):
            if any(cs):
                hi = len(cs)
                while not cs[hi - 1]:
                    hi -= 1
                lo = 0
                while not cs[lo]:
                    lo += 1
                cs, low = cs[lo:hi], low + lo
            else:
                cs, low = (), 0
        out = object.__new__(LaurentScalar)
        out._p, out._low, out._coeffs, out._den = None, low, tuple(cs), 1
        return out

    def _coerce(self, other):
        if isinstance(other, int):
            return self._make(0, [other], 1)
        if isinstance(other, LaurentScalar):
            return other
        return None

    @staticmethod
    def q_power(exponent: int) -> "LaurentScalar":
        return GENERIC.q_power(exponent)

    @staticmethod
    def neg_q_power(exponent: int) -> "LaurentScalar":
        return GENERIC.neg_q_power(exponent)

    @property
    def terms(self) -> dict[int, int]:
        return {e: c for e, c in enumerate(self._coeffs, self._low) if c}

    def __repr__(self):
        return f"LaurentScalar('{self}')"


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
    """The p-th cyclotomic polynomial as a Laurent scalar (2 <= p <= MAX_ORDER)."""
    if not 2 <= p <= MAX_ORDER:
        raise ValueError(f"cyclotomic polynomial needs 2 <= p <= MAX_ORDER = {MAX_ORDER}, got {p}")
    return GENERIC._unit._make(0, list(_cyclotomic_coeffs(p)), 1)


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators and their positive common denominator."""
    cs = list(coeffs)
    den = 1
    converted = False
    for c in cs:
        if type(c) is not int:
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(f"cyclotomic coefficient {c!r} is not an int or a Fraction")
            converted = True
    if converted:
        cs = [int(c * den) for c in cs]
    return cs, den


class CyclotomicScalar(_Polynomial):
    """Residue of a rational polynomial in q modulo Phi_p (p >= 3).

    The residue is stored as integer numerators over one positive common
    denominator, in lowest terms: (c_0 + c_1 q + ... + c_{d-1} q^(d-1)) / den
    with d = deg Phi_p and _low 0, so the representation is unique and
    q^p = 1 holds exactly.  Phi_p is monic, so the residues of Z[q, q^-1] are
    the residues with den == 1, and their sums and products never leave the
    integers; only `inverse` brings in a denominator.

    The constructor takes ints and Fractions; any other type raises
    TypeError.
    """

    __slots__ = ()

    def __new__(cls, p: int, coeffs=()):
        return root_of_unity(p)._unit._make(0, *_numerators(coeffs))

    def __getnewargs__(self):
        # pickle and copy rebuild a residue through the constructor
        return self._p, self.coeffs

    def _make(self, low, cs, den):
        # q^p = 1, so q^low is q^(low mod p)
        p = self._p
        if low:
            cs = [0] * (low % p) + cs
        phi = _cyclotomic_coeffs(p)
        if len(cs) >= len(phi):
            _poly_divmod(cs, phi)  # reduce modulo Phi_p in place
        while cs and not cs[-1]:
            cs.pop()
        if den != 1:
            g = gcd(den, *cs)  # den itself when cs is empty, so zero gets den 1
            if g != 1:
                cs = [c // g for c in cs]
                den //= g
        out = object.__new__(CyclotomicScalar)
        out._p, out._low, out._coeffs, out._den = p, 0, tuple(cs), den
        return out

    def _coerce(self, other):
        if isinstance(other, int):
            return self._make(0, [other], 1)
        if not isinstance(other, CyclotomicScalar):
            return None
        if other._p != self._p:
            raise ValueError(f"mixed root-of-unity orders {self._p} and {other._p}")
        return other

    @property
    def p(self) -> int:
        return self._p

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients: ints when the residue is in Z[zeta_p],
        Fractions otherwise."""
        if self._den == 1:
            return self._coeffs
        return tuple(Fraction(c, self._den) for c in self._coeffs)

    def inverse(self) -> "CyclotomicScalar":
        if not self._coeffs:
            raise ZeroDivisionError("cyclotomic scalar is zero")
        # extended Euclid of the numerator against Phi_p; the cofactor of the
        # numerator is only needed modulo Phi_p, so it is kept as a residue
        old_r = [Fraction(c) for c in _cyclotomic_coeffs(self._p)]
        r = [Fraction(c) for c in self._coeffs]
        old_t, t = self._make(0, [], 1), self._make(0, [1], 1)
        while r:
            quo = _poly_divmod(old_r, r)
            old_r, r = r, old_r
            old_t, t = t, old_t - self._make(0, *_numerators(quo)) * t
        # old_r is a nonzero constant c because Phi_p is irreducible, and
        # the inverse of numerator / den is den * old_t / c
        (c,) = old_r
        return self._make(0, *_numerators(x * self._den / c for x in old_t.coeffs))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __repr__(self):
        return f"CyclotomicScalar(p={self._p}, '{self}')"


def specialize(x: LaurentScalar, p: int) -> CyclotomicScalar:
    """Residue of a Laurent scalar at a primitive p-th root of unity (p >= 3):
    the residue `_make` takes x's own exponent and coefficients."""
    return root_of_unity(p)._unit._make(x._low, list(x._coeffs), 1)


def fold(acc: dict, pairs, scale, products: dict | None = None,
         sums: dict | None = None) -> None:
    """acc += scale * pairs for an iterable of (key, scalar) pairs, in place;
    no zero is stored.  A scale of one stores the scalars themselves (they are
    immutable), a new key takes its term without a sum, and only sums can cancel.

    With the tables `products`, mapping (a, b) to a * b, and `sums`, mapping
    (a, b) to a + b, each product and sum is looked up before it is computed
    and stored after, so repeated arithmetic returns one shared scalar.
    """
    if not scale:
        return
    unit = scale == 1
    for k, x in pairs:
        old = acc.get(k)
        if products is None:
            if not unit:
                x = scale * x
            total = x if old is None else old + x
        else:
            if not unit:
                y = products.get((scale, x))
                if y is None:
                    y = products[scale, x] = scale * x
                x = y
            if old is None:
                total = x
            else:
                total = sums.get((old, x))
                if total is None:
                    total = sums[old, x] = old + x
        if total:
            acc[k] = total
        elif old is not None:
            del acc[k]


@dataclass(frozen=True)
class ScalarDomain:
    """Ground domain tag: generic Laurent ring, or root of unity of order p.

    Every module and matrix computation is parameterized by exactly one
    domain; mixing scalars across domains raises.  The domain is the one
    factory of its scalars: it keeps its unit, the only scalar not made by
    a `_make` call, and builds every other scalar with the unit's `_make`.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not 3 <= self.p <= MAX_ORDER:
            raise ValueError(f"root-of-unity order p must be >= 3 and <= MAX_ORDER = {MAX_ORDER}, "
                             f"got {self.p}")
        unit = object.__new__(LaurentScalar if self.p is None else CyclotomicScalar)
        unit._p, unit._low, unit._coeffs, unit._den = self.p, 0, (1,), 1
        object.__setattr__(self, "_unit", unit)

    @property
    def is_generic(self) -> bool:
        return self.p is None

    def _monomial(self, coefficient: int, exponent: int):
        # c q^e; both must be ints
        if not (isinstance(coefficient, int) and isinstance(exponent, int)):
            raise TypeError(f"{coefficient!r} q^{exponent!r} is not an integer monomial")
        return self._unit._make(exponent, [coefficient], 1)

    def zero(self):
        return self._monomial(0, 0)

    def one(self):
        return self._unit

    def from_int(self, value: int):
        return self._monomial(value, 0)

    def q(self):
        return self.q_power(1)

    def q_power(self, exponent: int):
        return self._monomial(1, exponent)

    def neg_q_power(self, exponent: int):
        """The unit (-q)^exponent, for any integer exponent."""
        return self._monomial(-1 if exponent % 2 else 1, exponent)

    def contains(self, x) -> bool:
        return isinstance(x, type(self._unit)) and x._p == self.p

    def check_entries(self, rows):
        """Raise ValueError unless every entry of the rows is in the domain.

        One pass collects the entry types and one the orders; `contains`
        runs per entry only to name a foreign one.
        """
        kind = type(self._unit)
        types = {type(x) for row in rows for x in row}
        if all(issubclass(t, kind) for t in types) and (
                {x._p for row in rows for x in row} <= {self.p}):
            return
        bad = next(x for row in rows for x in row if not self.contains(x))
        raise ValueError(f"entry {bad!r} is not in domain {self}")

    def parse(self, text: str):
        """The scalar that `str` renders as `text`.  Raises ValueError on a
        malformed text, on an exponent span over MAX_SPAN coefficients and
        on a coefficient the domain does not hold."""
        low, dense = _dense((e, c) for c, e in _scan_terms(text))
        cs, den = _numerators(dense)
        x = self._unit._make(low, list(cs), den)
        # a Laurent _make has no denominator to keep, so a fraction fails here
        if den != 1 and x * den != self._unit._make(low, cs, 1):
            raise ValueError(f"non-integer coefficient in {self} scalar {text!r}")
        return x

    def __str__(self):
        return "generic" if self.is_generic else f"root-of-unity p={self.p}"


GENERIC = ScalarDomain()


def root_of_unity(p: int) -> ScalarDomain:
    return ScalarDomain(p)
