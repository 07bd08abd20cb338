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

The column elements 1 + h_a and the Garnir elements sum_d (-q)^{-l(d)} h(d)
(d over minimal-length coset representatives) annihilate the superstandard
vector; the root-of-unity submodule search evaluates them in another module.
One table, `_garnir_pools`, places every Garnir pool in the column word.

`SpechtModule(shape, domain)` holds all per-shape data: the standard-tableau
`basis` and its `index`, the memo of column-sorted non-standard tableaux,
the action table of h_i on each basis vector and the action of (scalar,
word) sums; vectors inside it are keyed by basis position, and every sum
of scaled expansions is one `scalar.fold`.  Straightening draws its
coefficients from a few signed powers of q, so the module keeps a product
table and a sum table: the Garnir solve and the action table look each
product and sum up there, compute it once, and share the scalar.
The public functions take their module from `specht_module`, which keeps the
module of the most recent (shape, domain) only; `specht_module.cache_clear()`
frees it, its memo and its tables.
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
    _column_starts,
    _tableau_of_word,
    enumerate_standard,
    hook_count,
    reduced_word,
    superstandard,
)
from .linalg import Matrix
from .scalar import GENERIC, ScalarDomain, fold

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
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for t, _ in items:
            if t.shape != shape:
                raise ValueError(f"tableau {t} does not have shape {shape}")
        fold(self.terms, items, domain.one())

    @classmethod
    def single(cls, t: Tableau, domain: ScalarDomain) -> "TableauVector":
        return cls(t.shape, domain, {t: domain.one()})


def _garnir_pools(shape: Partition) -> dict[tuple[int, int], tuple[int, int, int]]:
    """Each pair of row neighbours (row, col), (row, col + 1), in reading
    order, mapped to its Garnir pool (start, split, stop) in the column word:
    the pool is word[start:stop], its first segment word[start:split]."""
    starts = _column_starts(shape.column_heights())
    return {(r, c): (starts[c] + r, starts[c + 1], starts[c + 1] + r + 1)
            for r, part in enumerate(shape.parts) for c in range(part - 1)}


def _column_sorted(word: tuple[int, ...], columns) -> tuple[int, tuple[int, ...]]:
    """Sort each (start, stop) column block of a column word, returning the
    sign picked up (+1 or -1, the parity of the inversions) and the word."""
    sign, out = 1, None
    for start, stop in columns:
        column = word[start:stop]
        ordered = tuple(sorted(column))
        if column != ordered:
            if out is None:
                out = list(word)
            out[start:stop] = ordered
            if sum(a > b for i, a in enumerate(column) for b in column[i + 1:]) % 2:
                sign = -sign
    return sign, word if out is None else tuple(out)


def _garnir_block(word: tuple[int, ...], start: int, split: int, stop: int):
    """Every redistribution of the Garnir pool word[start:stop], as
    (column word, l(t) - l(t')) pairs, t being the tableau of word.

    The pool is the bottom of one column from the descent row down
    (word[start:split]) followed by the top of the next column down to that
    row (word[split:stop]), one contiguous block of the column word, and a
    redistribution keeps both segments increasing.  Only pairs inside the
    block change order, so l(t) - l(t') is the difference of the block's
    inversion counts; with the pool sorted, choosing the pool indices
    `chosen` for the first segment leaves sum(chosen) - m(m-1)/2 inversions.
    """
    block = word[start:stop]
    pool = sorted(block)
    size = split - start
    base = sum(a > b for i, a in enumerate(block) for b in block[i + 1:]) + size * (size - 1) // 2
    head, tail = word[:start], word[stop:]
    for chosen in combinations(range(len(pool)), size):
        left = tuple(pool[i] for i in chosen)
        right = tuple(v for v in pool if v not in left)
        yield head + left + right + tail, base - sum(chosen)


def garnir_relation_terms(t: Tableau, row: int, col: int,
                          domain: ScalarDomain = GENERIC) -> dict[Tableau, object]:
    """The Garnir relation at the descent t[row][col] > t[row][col+1].

    Returns every redistribution of the two column segments (the entries
    from the descent cell down, and from the top of the next column down
    to the descent row) mapped to its coefficient (-q)^(l(w_t) - l(w_t')),
    normalized so that t itself carries coefficient 1.  The coefficients
    sum against the tableau vectors to zero in the module.
    """
    pool = _garnir_pools(t.shape).get((row, col))
    word = t.column_word()
    if pool is None or word[pool[0]] <= word[pool[2] - 1]:
        raise ValueError(f"no descent at row {row}, column {col} of {t}")
    heights = t.shape.column_heights()
    return {_tableau_of_word(candidate, heights): domain.neg_q_power(exponent)
            for candidate, exponent in _garnir_block(word, *pool)}


class SpechtModule:
    """S^shape over one scalar domain: basis, straightening and the action.

    `basis` lists the standard tableaux in basis order and `index` inverts
    it; both are built on first use.  Terms are dicts from basis positions
    to nonzero scalars, and an expansion is a tuple of (position,
    coefficient) pairs.  Inside, a tableau is its column word.  A standard
    word is read off the basis, a word with an unsorted column is sorted at
    the cost of a sign, and `memo` maps each column-sorted non-standard
    word straightened so far to its expansion.  `image(i, j)`, the
    expansion of h_i on basis vector j, is computed once and kept in the
    action table, which every action and generator matrix reads.  Each
    Garnir step removes the first row descent in reading order (top to
    bottom, left to right).

    `products` maps each pair (a, b) multiplied in straightening to a * b,
    and each Garnir exponent e to -(-q)^e, the scale of a candidate e
    inversions shorter; `sums` maps each pair (a, b) added there to a + b.
    Only `_garnir` and `image` use them: the coefficients met in the action
    on general vectors and in elimination rarely repeat.
    """

    def __init__(self, shape: Partition, domain: ScalarDomain):
        self.shape = shape
        self.domain = domain
        self.memo: dict[tuple[int, ...], tuple] = {}
        self._images: dict[tuple[int, int], tuple] = {}
        starts = _column_starts(shape.column_heights())
        self._columns = [(a, b) for a, b in zip(starts, starts[1:]) if b - a > 1]
        self._pools = tuple(_garnir_pools(shape).values())
        self._zero, self._one, self._q = domain.zero(), domain.one(), domain.q()
        self._q_minus_1 = self._q - self._one
        self.products: dict = {}
        self.sums: dict = {}

    @cached_property
    def basis(self) -> tuple[Tableau, ...]:
        return enumerate_standard(self.shape)

    @cached_property
    def index(self) -> dict[Tableau, int]:
        return {t: i for i, t in enumerate(self.basis)}

    @cached_property
    def _words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t.column_word() for t in self.basis)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        return {word: i for i, word in enumerate(self._words)}

    def _expansion(self, word: tuple[int, ...]) -> tuple[int, tuple]:
        """(sign, expansion) with v_word = sign * the expansion."""
        position = self._position.get(word)
        if position is not None:
            return 1, ((position, self._one),)
        sign, word = _column_sorted(word, self._columns)
        position = self._position.get(word)
        if position is not None:
            return sign, ((position, self._one),)
        expansion = self.memo.get(word)
        if expansion is None:
            expansion = self.memo[word] = self._garnir(word)
        return sign, expansion

    def _garnir(self, word: tuple[int, ...]) -> tuple:
        """Solve the Garnir relation of a column-sorted non-standard word for it."""
        pool = next(pool for pool in self._pools if word[pool[0]] > word[pool[2] - 1])
        products, sums = self.products, self.sums
        acc: dict[int, object] = {}
        for candidate, exponent in _garnir_block(word, *pool):
            if candidate != word:
                scale = products.get(exponent)
                if scale is None:
                    scale = products[exponent] = -self.domain.neg_q_power(exponent)
                sign, expansion = self._expansion(candidate)
                fold(acc, expansion, scale if sign > 0 else self._product(-1, scale),
                     products, sums)
        return tuple(acc.items())

    def _product(self, a, b):
        """a * b, from the product table."""
        c = self.products.get((a, b))
        if c is None:
            c = self.products[a, b] = a * b
        return c

    def straighten_tableau(self, t: Tableau) -> tuple:
        """Standard-basis expansion of v_t as ((position, coefficient), ...)."""
        if tuple(len(row) for row in t.rows) != self.shape.parts:
            raise ValueError(f"tableau {t} does not have shape {self.shape}")
        sign, expansion = self._expansion(t.column_word())
        return expansion if sign > 0 else tuple((u, -c) for u, c in expansion)

    def straighten(self, terms: Mapping[Tableau, object]) -> dict[int, object]:
        acc: dict[int, object] = {}
        for t, c in terms.items():
            fold(acc, self.straighten_tableau(t), c)
        return acc

    def image(self, i: int, j: int) -> tuple:
        """Expansion of h_i applied to basis vector j, from the action table.

        With x the swap of i and i+1 in the tableau t: v_x if i precedes
        i+1 in the column word of t, q v_x + (q-1) v_t otherwise.
        """
        pairs = self._images.get((i, j))
        if pairs is None:
            word = list(self._words[j])
            a, b = word.index(i), word.index(i + 1)
            word[a], word[b] = i + 1, i
            sign, pairs = self._expansion(tuple(word))
            if a > b:
                products, sums = self.products, self.sums
                acc: dict[int, object] = {}
                fold(acc, pairs, self._q if sign > 0 else self._product(-1, self._q),
                     products, sums)
                fold(acc, ((j, self._q_minus_1),), self._one, products, sums)
                pairs = tuple(acc.items())
            elif sign < 0:
                pairs = tuple((u, self._product(-1, c)) for u, c in pairs)
            self._images[(i, j)] = pairs
        return pairs

    def act_generator(self, i: int, terms: Mapping[int, object]) -> dict[int, object]:
        """h_i applied to standard-basis terms."""
        acc: dict[int, object] = {}
        for j, c in terms.items():
            fold(acc, self.image(i, j), c)
        return acc

    def act_word(self, word: Iterable[int], terms: Mapping[int, object]) -> dict[int, object]:
        """h_{i1} ... h_{ik} applied right to left."""
        terms = dict(terms)
        for i in reversed(tuple(word)):
            terms = self.act_generator(i, terms)
        return terms

    def apply_element(self, element_terms, start: Mapping[int, object]) -> dict[int, object]:
        """A sum of (scalar, word) pairs applied to start."""
        acc: dict[int, object] = {}
        for coeff, word in element_terms:
            fold(acc, self.act_word(word, start).items(), coeff)
        return acc

    def terms(self, coords) -> dict[int, object]:
        """The nonzero coordinates of a coordinate tuple, by position."""
        return {j: c for j, c in enumerate(coords) if c}

    def coords(self, terms: Mapping[int, object]) -> tuple:
        """The coordinate tuple of terms."""
        coords = [self._zero] * len(self.basis)
        for j, c in terms.items():
            coords[j] = c
        return tuple(coords)

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


def straighten(v: TableauVector) -> SpechtVector:
    """Rewrite a tableau vector in the standard basis."""
    module = specht_module(v.shape, v.domain)
    return SpechtVector(v.shape, v.domain, module.coords(module.straighten(v.terms)))


def _check_generator_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")


def apply_generator(i: int, v: SpechtVector) -> SpechtVector:
    """The natural action of h_i, straightened back to the basis."""
    _check_generator_index(i, v.shape.n)
    module = specht_module(v.shape, v.domain)
    return SpechtVector(v.shape, v.domain,
                        module.coords(module.act_generator(i, module.terms(v.coords))))


def apply_word(word: Iterable[int], v: SpechtVector) -> SpechtVector:
    """Left action of h_{i1} h_{i2} ... h_{ik}, applied right to left."""
    word = tuple(word)
    for i in word:
        _check_generator_index(i, v.shape.n)
    module = specht_module(v.shape, v.domain)
    return SpechtVector(v.shape, v.domain,
                        module.coords(module.act_word(word, module.terms(v.coords))))


def generator_matrix(shape: Partition, i: int, domain: ScalarDomain = GENERIC) -> Matrix:
    """Matrix of h_i in the standard basis; columns are basis images."""
    _check_generator_index(i, shape.n)
    module = specht_module(shape, domain)
    dim = len(module.basis)
    return Matrix.from_columns(domain, dim, [dict(module.image(i, j)) for j in range(dim)])


def character_trace(shape: Partition, word: Iterable[int],
                    domain: ScalarDomain = GENERIC):
    """Trace of the represented word h_{i1}...h_{ik} on S^shape."""
    word = tuple(word)
    for i in word:
        _check_generator_index(i, shape.n)
    module = specht_module(shape, domain)
    acc = domain.zero()
    for j in range(len(module.basis)):
        image = module.act_word(word, {j: domain.one()})
        if j in image:
            acc = acc + image[j]
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
    ends = _column_starts(shape.column_heights())[1:]
    return tuple(ColumnElement(a) for a in range(1, shape.n + 1) if a not in ends)


def garnir_anchors(shape: Partition) -> tuple[int, ...]:
    """Superstandard entries not at the end of their row."""
    return tuple(sorted(start + 1 for start, _, _ in _garnir_pools(shape).values()))


def garnir_element(shape: Partition, a: int) -> GarnirElement:
    """The Garnir annihilator anchored at the superstandard entry a.

    In the superstandard column word 1..n the pool of a is {a..d}, split
    after b; its redistributions are the minimal-length coset
    representatives of S_{a..b} x S_{b+1..d}, and the words reduce them.
    """
    pool = next((pool for pool in _garnir_pools(shape).values() if pool[0] == a - 1), None)
    if pool is None:
        raise ValueError(f"entry {a} is not a Garnir anchor of {superstandard(shape)}")
    words = sorted((reduced_word(Permutation(word)) for word, _ in
                    _garnir_block(tuple(range(1, shape.n + 1)), *pool)),
                   key=lambda w: (len(w), w))
    return GarnirElement(anchor=a, words=tuple(words))


def garnir_elements(shape: Partition) -> tuple[GarnirElement, ...]:
    return tuple(garnir_element(shape, a) for a in garnir_anchors(shape))


def annihilator_checks(shape: Partition,
                       domain: ScalarDomain = GENERIC) -> list[tuple[str, bool]]:
    """Each column/Garnir element applied to the superstandard vector."""
    named = [(f"column element {e}", e) for e in column_elements(shape)]
    named += [(f"garnir element a={e.anchor}", e) for e in garnir_elements(shape)]
    module = specht_module(shape, domain)
    return module.check_equalities(
        [(name, e.terms(domain), ()) for name, e in named],
        [{module.index[superstandard(shape)]: domain.one()}])


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
    starts = [{j: domain.one()} for j in range(len(module.basis))]
    return module.check_equalities(_relations(shape.n, domain), starts)


def generator_relation_checks(shape: Partition,
                              domain: ScalarDomain = GENERIC) -> list[tuple[str, bool]]:
    """The same relations, applied to the cyclic generator vector only.

    Complete on the generator orbit but not on the whole module; used by
    the CLI when the module is too large to check every basis vector.
    """
    relations = [(f"{name} (generator vector)", lhs, rhs)
                 for name, lhs, rhs in _relations(shape.n, domain)]
    module = specht_module(shape, domain)
    return module.check_equalities(relations, [{module.index[superstandard(shape)]: domain.one()}])
