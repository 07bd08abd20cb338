"""The Specht module S^lambda of the Hecke algebra H_n(q).

The module is spanned by tableau vectors v_t subject to two families of
relations, which together rewrite any v_t into the standard-tableau
basis ("straightening"):

* column relations -- transposing two entries of one column negates the
  vector, so columns can be sorted at the cost of a sign;
* Garnir relations -- at a row descent of a column-sorted tableau, the
  signed q-weighted sum over all redistributions of the two column
  segments (each kept increasing) vanishes; the violating tableau's term
  is the dominant one and is solved for.

The generator h_i acts on v_t through the swap x of i and i+1:
v_x if i precedes i+1 in the column reading word of t, and
q v_x + (q-1) v_t otherwise.

The column elements 1 + h_a and the Garnir elements
sum_d (-q)^{-l(d)} h(d) (d over minimal-length coset representatives)
annihilate the superstandard generator vector; evaluating them inside a
different Specht module is what the root-of-unity submodule search uses.

`SpechtModule(shape, domain)` holds all per-shape data: the standard-tableau
`basis` and its `index`, the straightening memo, the action of the
generators and of (scalar, word) sums, and matrix building.  The public
functions take their module from `specht_module`, which keeps the module of
the most recent (shape, domain) only; `specht_module.cache_clear()` frees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from .combinat import (
    Partition,
    Permutation,
    Tableau,
    enumerate_standard,
    hook_count,
    precedes,
    reduced_word,
    superstandard,
    tableau_distance,
)
from .linalg import Matrix
from .scalar import GENERIC, ScalarDomain

TOPMOST = "topmost"
BOTTOMMOST = "bottommost"
# which row descent of a column-sorted tableau a Garnir step removes:
# the first or the last in reading order (top to bottom, left to right)
_DESCENT = {TOPMOST: 0, BOTTOMMOST: -1}


@dataclass(frozen=True)
class SpechtVector:
    """Coordinates in the ordered standard-tableau basis of one shape."""

    shape: Partition
    domain: ScalarDomain
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != hook_count(self.shape):
            raise ValueError("coordinate count does not match the standard basis")
        self.domain.check_entries((self.coords,))

    @classmethod
    def basis_vector(cls, t: Tableau, domain: ScalarDomain) -> "SpechtVector":
        return cls.from_terms(t.shape, {t: domain.one()}, domain)

    @classmethod
    def from_terms(cls, shape: Partition, terms: Mapping[Tableau, object],
                   domain: ScalarDomain) -> "SpechtVector":
        index = specht_module(shape, domain).index
        coords = [domain.zero()] * len(index)
        for t, c in terms.items():
            i = index.get(t)
            if i is None:
                raise ValueError(f"tableau {t} is not a standard tableau of shape {shape}")
            coords[i] = coords[i] + c
        return cls(shape, domain, tuple(coords))

    def terms(self) -> dict[Tableau, object]:
        basis = specht_module(self.shape, self.domain).basis
        return {t: c for t, c in zip(basis, self.coords) if c}

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "SpechtVector") -> "SpechtVector":
        if self.shape != other.shape or self.domain != other.domain:
            raise ValueError("mixed shapes or domains")
        return SpechtVector(self.shape, self.domain,
                            tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, scalar) -> "SpechtVector":
        return SpechtVector(self.shape, self.domain,
                            tuple(scalar * c for c in self.coords))

    def __sub__(self, other: "SpechtVector") -> "SpechtVector":
        return self + other.scale(self.domain.from_int(-1))


class TableauVector:
    """Formal scalar combination of same-shape tableau vectors."""

    def __init__(self, shape: Partition, domain: ScalarDomain,
                 terms: Mapping[Tableau, object] = ()):
        self.shape = shape
        self.domain = domain
        self.terms: dict[Tableau, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for t, c in items:
            if t.shape != shape:
                raise ValueError(f"tableau {t} does not have shape {shape}")
            if c:
                self.terms[t] = self.terms.get(t, domain.zero()) + c

    @classmethod
    def single(cls, t: Tableau, domain: ScalarDomain) -> "TableauVector":
        return cls(t.shape, domain, {t: domain.one()})


def _column_sorted(t: Tableau) -> tuple[int, Tableau]:
    """Sort every column, returning the sign picked up (+1 or -1)."""
    grid = [list(row) for row in t.rows]
    heights = t.shape.column_heights()
    sign = 1
    for c, height in enumerate(heights):
        col = [grid[r][c] for r in range(height)]
        inversions = sum(
            1 for i in range(height) for j in range(i + 1, height) if col[i] > col[j]
        )
        if inversions:
            sign *= -1 if inversions % 2 else 1
            for r, v in enumerate(sorted(col)):
                grid[r][c] = v
    return sign, Tableau(tuple(tuple(row) for row in grid))


def _row_descents(t: Tableau) -> list[tuple[int, int]]:
    """Every (row, col) with t[row][col] > t[row][col+1], in reading order."""
    return [(r, c) for r, row in enumerate(t.rows)
            for c in range(len(row) - 1) if row[c] > row[c + 1]]


def garnir_relation_terms(t: Tableau, row: int, col: int,
                          domain: ScalarDomain = GENERIC) -> dict[Tableau, object]:
    """The Garnir relation at the descent t[row][col] > t[row][col+1].

    Returns every redistribution of the two column segments (the entries
    from the descent cell down, and from the top of the next column down
    to the descent row) mapped to its coefficient (-q)^(l(w_t) - l(w_t')),
    normalized so that t itself carries coefficient 1.  The coefficients
    sum against the tableau vectors to zero in the module.
    """
    if t.rows[row][col] <= t.rows[row][col + 1]:
        raise ValueError(f"no descent at row {row}, column {col} of {t}")
    heights = t.shape.column_heights()
    left_cells = [(r, col) for r in range(row, heights[col])]
    right_cells = [(r, col + 1) for r in range(0, row + 1)]
    pool = sorted(t.rows[r][c] for r, c in left_cells + right_cells)
    base_length = tableau_distance(t)
    out: dict[Tableau, object] = {}
    for left_values in combinations(pool, len(left_cells)):
        right_values = sorted(set(pool) - set(left_values))
        grid = [list(r) for r in t.rows]
        for (r, c), v in zip(left_cells, left_values):
            grid[r][c] = v
        for (r, c), v in zip(right_cells, right_values):
            grid[r][c] = v
        candidate = Tableau(tuple(tuple(r) for r in grid))
        out[candidate] = domain.neg_q_power(base_length - tableau_distance(candidate))
    return out


class SpechtModule:
    """S^shape over one scalar domain: basis, straightening, the action, matrices.

    `basis` lists the standard tableaux in basis order and `index` inverts
    it; both are built on first use.  `memo` maps every tableau straightened
    so far to its standard-basis expansion ((tableau, coefficient), ...).
    `policy` picks the row descent each Garnir step removes; the expansions
    do not depend on it.  Terms are dicts from tableaux to nonzero scalars.
    """

    def __init__(self, shape: Partition, domain: ScalarDomain, policy: str = TOPMOST):
        self.shape = shape
        self.domain = domain
        if policy not in _DESCENT:
            raise ValueError(f"unknown policy {policy!r}; use {TOPMOST!r} or {BOTTOMMOST!r}")
        self.memo: dict[Tableau, tuple] = {}
        self._descent = _DESCENT[policy]
        self._zero, self._one, self._q = domain.zero(), domain.one(), domain.q()
        self._q_minus_1 = self._q - self._one

    @cached_property
    def basis(self) -> tuple[Tableau, ...]:
        return enumerate_standard(self.shape)

    @cached_property
    def index(self) -> dict[Tableau, int]:
        return {t: i for i, t in enumerate(self.basis)}

    def straighten_tableau(self, t: Tableau) -> tuple:
        """Standard-basis expansion of v_t as ((tableau, coefficient), ...)."""
        cached = self.memo.get(t)
        if cached is not None:
            return cached
        if t.is_standard():
            result = ((t, self._one),)
        else:
            sign, sorted_t = _column_sorted(t)
            if sorted_t != t:
                inner = self.straighten_tableau(sorted_t)
                result = inner if sign == 1 else tuple((u, -c) for u, c in inner)
            else:
                r, c = _row_descents(t)[self._descent]
                acc: dict[Tableau, object] = {}
                for candidate, coeff in garnir_relation_terms(t, r, c, self.domain).items():
                    if candidate != t:
                        self._fold(self.straighten_tableau(candidate), -coeff, acc)
                result = tuple(acc.items())
        self.memo[t] = result
        return result

    def _fold(self, pairs: Iterable[tuple[Tableau, object]], scale, acc: dict):
        """Add scale times the (tableau, coefficient) pairs into acc."""
        for t, c in pairs:
            value = acc.get(t, self._zero) + scale * c
            if value:
                acc[t] = value
            elif t in acc:
                del acc[t]

    def straighten(self, terms: Mapping[Tableau, object]) -> dict[Tableau, object]:
        acc: dict[Tableau, object] = {}
        for t, c in terms.items():
            self._fold(self.straighten_tableau(t), c, acc)
        return acc

    def act_generator(self, i: int, terms: Mapping[Tableau, object]) -> dict[Tableau, object]:
        """h_i applied to standard-basis terms."""
        acc: dict[Tableau, object] = {}
        for t, c in terms.items():
            x = t.with_swapped(i, i + 1)
            if precedes(i, i + 1, t):
                self._fold(self.straighten_tableau(x), c, acc)
            else:
                self._fold(self.straighten_tableau(x), self._q * c, acc)
                self._fold(self.straighten_tableau(t), self._q_minus_1 * c, acc)
        return acc

    def act_word(self, word: Iterable[int], terms: Mapping[Tableau, object]) -> dict[Tableau, object]:
        """h_{i1} ... h_{ik} applied right to left."""
        terms = dict(terms)
        for i in reversed(tuple(word)):
            terms = self.act_generator(i, terms)
        return terms

    def apply_element(self, element_terms, start: Mapping[Tableau, object]) -> dict[Tableau, object]:
        """A sum of (scalar, word) pairs applied to start."""
        acc: dict[Tableau, object] = {}
        for coeff, word in element_terms:
            self._fold(self.act_word(word, start).items(), coeff, acc)
        return acc

    def matrix(self, act) -> Matrix:
        """Matrix of a linear action given on terms; column j is the image
        of the j-th standard basis tableau."""
        grid = [[self._zero] * len(self.basis) for _ in self.basis]
        for j, t in enumerate(self.basis):
            for u, c in act({t: self._one}).items():
                grid[self.index[u]][j] = c
        return Matrix(self.domain, grid)

    def check_equalities(self, equalities, starts) -> list[tuple[str, bool]]:
        """Check each (name, lhs, rhs) of (scalar, word) sums by applying both
        sides to every start vector."""
        return [
            (name, all(self.apply_element(lhs, start) == self.apply_element(rhs, start)
                       for start in starts))
            for name, lhs, rhs in equalities
        ]


@lru_cache(maxsize=1)
def specht_module(shape: Partition, domain: ScalarDomain) -> SpechtModule:
    """The module of the most recent (shape, domain); one is kept at a time."""
    return SpechtModule(shape, domain)


def straighten(v: TableauVector, policy: str = TOPMOST) -> SpechtVector:
    """Rewrite a tableau vector in the standard basis.

    The result is independent of the Garnir pair-selection policy; the
    `policy` knob exists so tests can confirm that.  A policy other than
    TOPMOST straightens in a module of its own, with a memo of its own.
    """
    module = (specht_module(v.shape, v.domain) if policy == TOPMOST
              else SpechtModule(v.shape, v.domain, policy))
    return SpechtVector.from_terms(v.shape, module.straighten(v.terms), v.domain)


def _check_generator_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def apply_generator(i: int, v: SpechtVector) -> SpechtVector:
    """The natural action of h_i, straightened back to the basis."""
    _check_generator_index(i, v.shape.n)
    terms = specht_module(v.shape, v.domain).act_generator(i, v.terms())
    return SpechtVector.from_terms(v.shape, terms, v.domain)


def apply_word(word: Iterable[int], v: SpechtVector) -> SpechtVector:
    """Left action of h_{i1} h_{i2} ... h_{ik}, applied right to left."""
    word = tuple(word)
    for i in word:
        _check_generator_index(i, v.shape.n)
    terms = specht_module(v.shape, v.domain).act_word(word, v.terms())
    return SpechtVector.from_terms(v.shape, terms, v.domain)


def generator_matrix(shape: Partition, i: int, domain: ScalarDomain = GENERIC) -> Matrix:
    """Matrix of h_i in the standard basis; columns are basis images."""
    _check_generator_index(i, shape.n)
    module = specht_module(shape, domain)
    return module.matrix(lambda terms: module.act_generator(i, terms))


def character_trace(shape: Partition, word: Iterable[int],
                    domain: ScalarDomain = GENERIC):
    """Trace of the represented word h_{i1}...h_{ik} on S^shape."""
    word = tuple(word)
    for i in word:
        _check_generator_index(i, shape.n)
    module = specht_module(shape, domain)
    acc = domain.zero()
    for t in module.basis:
        image = module.act_word(word, {t: domain.one()})
        if t in image:
            acc = acc + image[t]
    return acc


@dataclass(frozen=True)
class ColumnElement:
    """The annihilator 1 + h_a for an entry a above a column bottom."""

    anchor: int

    def terms(self, domain: ScalarDomain) -> tuple[tuple[object, tuple[int, ...]], ...]:
        one = domain.one()
        return ((one, ()), (one, (self.anchor,)))

    def __str__(self):
        return f"1 + h{self.anchor}"


@dataclass(frozen=True)
class GarnirElement:
    """sum_d (-q)^(-l(d)) h(d) over minimal-length coset representatives.

    The identity coset carries coefficient 1; `rendered()` multiplies by
    q^(max length) so the coefficients become +-q^(l_max - l(d)).
    Annihilation is unaffected by that unit.
    """

    anchor: int
    words: tuple[tuple[int, ...], ...]

    def max_length(self) -> int:
        return max(len(w) for w in self.words)

    def terms(self, domain: ScalarDomain) -> tuple[tuple[object, tuple[int, ...]], ...]:
        return tuple((domain.neg_q_power(-len(w)), w) for w in self.words)

    def rendered(self) -> str:
        l_max = self.max_length()
        parts = []
        for w in sorted(self.words, key=lambda w: (len(w), w)):
            exponent = l_max - len(w)
            sign = -1 if len(w) % 2 else 1
            pieces = []
            if exponent:
                pieces.append("q" if exponent == 1 else f"q^{exponent}")
            pieces.extend(f"h{i}" for i in w)
            body = "*".join(pieces) if pieces else "1"
            if not parts:
                parts.append(f"-{body}" if sign < 0 else body)
            else:
                parts.append(f"- {body}" if sign < 0 else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.rendered()


def column_elements(shape: Partition) -> tuple[ColumnElement, ...]:
    """One element per superstandard entry not at the bottom of its column."""
    base = superstandard(shape)
    heights = shape.column_heights()
    anchors = []
    for c, height in enumerate(heights):
        for r in range(height - 1):
            anchors.append(base.entry(r, c))
    return tuple(ColumnElement(a) for a in sorted(anchors))


def garnir_anchors(shape: Partition) -> tuple[int, ...]:
    """Superstandard entries not at the end of their row."""
    base = superstandard(shape)
    return tuple(sorted(v for row in base.rows for v in row[:-1]))


def garnir_element(shape: Partition, a: int) -> GarnirElement:
    """The Garnir annihilator anchored at the superstandard entry a."""
    base = superstandard(shape)
    r, c = base.position(a)
    if c + 1 >= len(base.rows[r]):
        raise ValueError(f"entry {a} is at the end of its row in {base}")
    d = base.entry(r, c + 1)
    heights = shape.column_heights()
    b = base.entry(heights[c] - 1, c)
    # the interval {a..d} splits as {a..b} and {b+1..d}; minimal coset
    # representatives are increasing on both blocks
    left_size = b - a + 1
    span = list(range(a, d + 1))
    words = []
    for left_image in combinations(span, left_size):
        right_image = [v for v in span if v not in left_image]
        images = list(range(1, shape.n + 1))
        for offset, v in enumerate(left_image):
            images[a + offset - 1] = v
        for offset, v in enumerate(right_image):
            images[b + 1 + offset - 1] = v
        words.append(reduced_word(Permutation(tuple(images))))
    words.sort(key=lambda w: (len(w), w))
    return GarnirElement(anchor=a, words=tuple(words))


def garnir_elements(shape: Partition) -> tuple[GarnirElement, ...]:
    return tuple(garnir_element(shape, a) for a in garnir_anchors(shape))


def annihilator_matrix(element, shape_of_module: Partition,
                       domain: ScalarDomain = GENERIC) -> Matrix:
    """Matrix of a column/Garnir element acting on S^shape_of_module.

    `element` may also be a raw iterable of (scalar, word) pairs.
    """
    element_terms = element.terms(domain) if hasattr(element, "terms") else tuple(element)
    n = shape_of_module.n
    for _, word in element_terms:
        for i in word:
            _check_generator_index(i, n)
    module = specht_module(shape_of_module, domain)
    return module.matrix(lambda terms: module.apply_element(element_terms, terms))


def annihilator_checks(shape: Partition,
                       domain: ScalarDomain = GENERIC) -> list[tuple[str, bool]]:
    """Each column/Garnir element applied to the superstandard vector."""
    named = [(f"column element {e}", e) for e in column_elements(shape)]
    named += [(f"garnir element a={e.anchor}", e) for e in garnir_elements(shape)]
    return specht_module(shape, domain).check_equalities(
        [(name, e.terms(domain), ()) for name, e in named],
        [{superstandard(shape): domain.one()}])


def verify_annihilators(shape: Partition, domain: ScalarDomain = GENERIC) -> bool:
    """True iff every column and Garnir element kills the generator vector."""
    return all(ok for _, ok in annihilator_checks(shape, domain))


def _relations(n: int, domain: ScalarDomain):
    """(name, lhs, rhs) for each defining relation of H_n(q), in check
    order; both sides are (scalar, word) sums."""
    one, q = domain.one(), domain.q()
    q_minus_1 = q - one
    quadratic = [(f"quadratic h{i}", ((one, (i, i)),), ((q_minus_1, (i,)), (q, ())))
                 for i in range(1, n)]
    braid = [(f"braid h{i},h{i + 1}", ((one, (i, i + 1, i)),), ((one, (i + 1, i, i + 1)),))
             for i in range(1, n - 1)]
    commutation = [(f"commutation h{i},h{j}", ((one, (i, j)),), ((one, (j, i)),))
                   for i in range(1, n) for j in range(i + 2, n)]
    return quadratic + braid + commutation


def defining_relation_checks(shape: Partition,
                             domain: ScalarDomain = GENERIC) -> list[tuple[str, bool]]:
    """Quadratic, braid and commutation relations on every standard basis
    vector, which is column by column the exact matrix identity."""
    module = specht_module(shape, domain)
    starts = [{t: domain.one()} for t in module.basis]
    return module.check_equalities(_relations(shape.n, domain), starts)


def generator_relation_checks(shape: Partition,
                              domain: ScalarDomain = GENERIC) -> list[tuple[str, bool]]:
    """The same relations, applied to the cyclic generator vector only.

    Complete on the generator orbit but not on the whole module; used by
    the CLI when the module is too large to check every basis vector.
    """
    relations = [(f"{name} (generator vector)", lhs, rhs)
                 for name, lhs, rhs in _relations(shape.n, domain)]
    return specht_module(shape, domain).check_equalities(
        relations, [{superstandard(shape): domain.one()}])
