import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from qspecht.combinat import (
    Partition,
    Permutation,
    Tableau,
    enumerate_standard,
    reduced_word,
    superstandard,
    tableau_distance,
)
from qspecht.linalg import Matrix, specialize_matrix
from qspecht.scalar import GENERIC, LaurentScalar, root_of_unity
from qspecht.specht import (
    SpechtModule,
    SpechtVector,
    TableauVector,
    apply_generator,
    apply_word,
    character_trace,
    column_elements,
    defining_relation_checks,
    garnir_anchors,
    garnir_element,
    garnir_elements,
    garnir_relation_terms,
    generator_matrix,
    generator_relation_checks,
    specht_module,
    straighten,
    verify_annihilators,
)

q = LaurentScalar.q_power(1)
S32 = Partition((3, 2))


def all_partitions(n, maxpart=None):
    if n == 0:
        yield ()
        return
    maxpart = maxpart or n
    for first in range(min(n, maxpart), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def vector_of(text, domain=GENERIC):
    return SpechtVector.basis_vector(Tableau.parse(text), domain)


def terms_as_strings(v):
    return {str(t): str(c) for t, c in v.terms().items()}


# -------------------------------------------------------------------- vectors

def test_vector_rejects_tableaux_outside_the_basis():
    with pytest.raises(ValueError, match=r"2,1,3/4,5 .* shape 3,2"):
        SpechtVector.basis_vector(Tableau.parse("2,1,3/4,5"), GENERIC)
    with pytest.raises(ValueError, match=r"1,2/3 .* shape 3,2"):
        SpechtVector.from_terms(S32, {Tableau.parse("1,2/3"): LaurentScalar(1)}, GENERIC)


def test_vector_rejects_coordinates_from_another_domain():
    with pytest.raises(ValueError, match="not in domain"):
        SpechtVector(S32, root_of_unity(3), (LaurentScalar(1),) * 5)
    with pytest.raises(ValueError, match="not in domain"):
        SpechtVector(S32, GENERIC, (root_of_unity(3).one(),) * 5)


# ---------------------------------------------------------------- straighten

def test_straighten_standard_is_identity():
    for t in enumerate_standard(S32):
        v = straighten(TableauVector.single(t, GENERIC))
        assert v.terms() == {t: LaurentScalar(1)}


def test_straighten_column_relation():
    v = straighten(TableauVector.single(Tableau.parse("2,3,5/1,4"), GENERIC))
    assert terms_as_strings(v) == {"1,3,5/2,4": "-1"}


def test_straighten_garnir_chain():
    v = straighten(TableauVector.single(Tableau.parse("2,1,3/4,5"), GENERIC))
    assert terms_as_strings(v) == {
        "1,2,3/4,5": "q",
        "1,3,4/2,5": "-q^3",
        "1,3,5/2,4": "q^4",
    }


def test_garnir_relation_terms_requires_descent():
    with pytest.raises(ValueError):
        garnir_relation_terms(superstandard(S32), 0, 0)
    # cells that are not two row neighbours, negative indices included, have
    # no relation; they once returned a false one without an error
    t = Tableau.parse("1,2,5/4,3")
    for row, col in [(-1, 0), (0, -1), (0, 2), (2, 0), (1, 1)]:
        with pytest.raises(ValueError, match="no descent"):
            garnir_relation_terms(t, row, col)
    with pytest.raises(ValueError, match="no descent"):
        garnir_relation_terms(Tableau.parse("1,5,4/2,3"), 0, -2)
    relation = garnir_relation_terms(t, 1, 0)
    assert {str(u): str(c) for u, c in relation.items()} == {
        "1,2,5/4,3": "1", "1,2,5/3,4": "-q", "1,3,5/2,4": "q^2"}


def test_garnir_relation_six_tableaux():
    # the worked n=13 relation: redistributing {3,5,8,11} across two columns
    z = Tableau(((1, 2, 3, 10, 4, 12), (6, 8, 5), (9, 11, 7), (13,)))
    relation = garnir_relation_terms(z, 1, 1, GENERIC)
    expected = {
        "1,2,3,10,4,12/6,8,5/9,11,7/13": "1",
        "1,2,3,10,4,12/6,5,8/9,11,7/13": "-q",
        "1,2,5,10,4,12/6,3,8/9,11,7/13": "q^2",
        "1,2,3,10,4,12/6,5,11/9,8,7/13": "q^2",
        "1,2,5,10,4,12/6,3,11/9,8,7/13": "-q^3",
        "1,2,8,10,4,12/6,3,11/9,5,7/13": "q^4",
    }
    assert {str(t): str(c) for t, c in relation.items()} == expected


@st.composite
def random_filling(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    parts = draw(st.sampled_from([p for p in all_partitions(n)]))
    entries = draw(st.permutations(range(1, n + 1)))
    rows, start = [], 0
    for part in parts:
        rows.append(tuple(entries[start:start + part]))
        start += part
    return Tableau(tuple(rows))


def row_descents(t):
    return [(r, c) for r, row in enumerate(t.rows) for c in range(len(row) - 1)
            if row[c] > row[c + 1]]


@given(random_filling(), st.data())
def test_internally_built_tableaux_are_valid(t, data):
    # swaps, the superstandard tableau, the basis and Garnir candidates skip
    # validation: each must be a tableau that validation accepts, with rows
    # stored as tuples
    a, b = (data.draw(st.integers(min_value=1, max_value=t.n)) for _ in range(2))
    built = [t.with_swapped(a, b), superstandard(t.shape), *enumerate_standard(t.shape)]
    for r, c in row_descents(t):
        relation = garnir_relation_terms(t, r, c, GENERIC)
        built.extend(relation)
        # the block inversion count gives the coefficient of the full words
        for u, coeff in relation.items():
            assert coeff == GENERIC.neg_q_power(tableau_distance(t) - tableau_distance(u))
    for u in built:
        assert u == Tableau(u.rows) and u.shape == t.shape


def test_with_swapped_rejects_entries_outside_the_tableau():
    with pytest.raises(ValueError, match="1..5"):
        Tableau.parse("1,3,5/2,4").with_swapped(5, 6)


@given(random_filling())
def test_every_garnir_relation_straightens_to_zero(t):
    # straightening removes the first row descent; the relation at every
    # other descent must vanish all the same
    for r, c in row_descents(t):
        relation = TableauVector(t.shape, GENERIC, garnir_relation_terms(t, r, c))
        assert straighten(relation).is_zero(), (t, r, c)


# -------------------------------------------------------------------- action

def test_action_on_column_pair():
    v = apply_generator(1, vector_of("1,3,5/2,4"))
    assert terms_as_strings(v) == {"1,3,5/2,4": "-1"}


def test_action_with_garnir_step():
    v = apply_generator(1, vector_of("1,2,5/3,4"))
    assert terms_as_strings(v) == {"1,2,5/3,4": "q", "1,3,5/2,4": "-q^2"}


def test_action_row_end_cases():
    # second row of the action rule: i+1 precedes i
    v = apply_generator(4, vector_of("1,3,4/2,5"))
    assert terms_as_strings(v) == {"1,3,5/2,4": "q", "1,3,4/2,5": "-1 + q"}


def test_hand_derived_columns():
    v = apply_generator(3, vector_of("1,2,5/3,4"))
    assert terms_as_strings(v) == {"1,3,5/2,4": "-q^2", "1,2,5/3,4": "q"}
    v = apply_generator(4, vector_of("1,2,3/4,5"))
    assert terms_as_strings(v) == {
        "1,3,5/2,4": "q^4", "1,3,4/2,5": "-q^3", "1,2,3/4,5": "q",
    }


def test_apply_generator_index_range():
    with pytest.raises(ValueError):
        apply_generator(5, vector_of("1,3,5/2,4"))
    with pytest.raises(ValueError):
        apply_generator(0, vector_of("1,3,5/2,4"))


def test_quadratic_consequence_in_both_domains():
    # h_i(h_i v) = (q-1) h_i v + q v; the q = 1 involution case is the
    # image of this identity and q = 1 itself lies outside both domains
    for domain in (GENERIC, root_of_unity(3)):
        for t in enumerate_standard(S32):
            v = SpechtVector.basis_vector(t, domain)
            twice = apply_generator(2, apply_generator(2, v))
            expected = apply_generator(2, v).scale(domain.q() - domain.one()) + v.scale(domain.q())
            assert twice == expected


def test_apply_word():
    v = vector_of("1,2,5/3,4")
    assert apply_word((), v) == v
    lhs = apply_word((1, 1), v)
    rhs = apply_generator(1, v).scale(q - 1) + v.scale(q)
    assert lhs == rhs
    composed = apply_word((2, 1), v)
    stepwise = apply_generator(2, apply_generator(1, v))
    assert composed == stepwise


def test_apply_word_large_shape_matches_garnir_term():
    shape = Partition((6, 3, 3, 1))
    element = garnir_element(shape, 6)
    assert (7, 6, 8, 7) in element.words
    v = SpechtVector.basis_vector(superstandard(shape), GENERIC)
    image = apply_word((7, 6, 8, 7), v)
    stepwise = v
    for i in (7, 8, 6, 7):
        stepwise = apply_generator(i, stepwise)
    assert image == stepwise
    assert not image.is_zero()


# ---------------------------------------------------------- generator matrix

def test_generator_matrix_3_2():
    expected = [
        ["-1", "-q^2", "0", "0", "q^4"],
        ["0", "q", "0", "0", "0"],
        ["0", "0", "-1", "-q^2", "-q^3"],
        ["0", "0", "0", "q", "0"],
        ["0", "0", "0", "0", "q"],
    ]
    m = generator_matrix(S32, 1, GENERIC)
    assert [[str(x) for x in row] for row in m.entries] == expected


def test_generator_matrix_quadratic_identity():
    m = generator_matrix(S32, 1, GENERIC)
    rhs = m.scale(q - 1) + Matrix.identity(GENERIC, 5).scale(q)
    assert m * m == rhs


def test_one_dimensional_modules():
    # single row: the straightening oracle says the swap gives q times the row
    row = Tableau.parse("1,2,3,4,5")
    swapped = row.with_swapped(2, 3)
    v = straighten(TableauVector.single(swapped, GENERIC))
    assert v.terms() == {row: q}
    m = generator_matrix(Partition((5,)), 2, GENERIC)
    assert [[str(x) for x in r] for r in m.entries] == [["q"]]
    m = generator_matrix(Partition((1, 1, 1, 1)), 3, GENERIC)
    assert [[str(x) for x in r] for r in m.entries] == [["-1"]]


def test_specialization_commutes_with_representation():
    rng = random.Random(11)
    shapes = [Partition(parts) for n in range(2, 7) for parts in all_partitions(n)]
    for _ in range(20):
        shape = rng.choice(shapes)
        i = rng.randrange(1, shape.n)
        p = rng.choice([3, 5])
        native = generator_matrix(shape, i, root_of_unity(p))
        assert specialize_matrix(generator_matrix(shape, i, GENERIC), p) == native


# ----------------------------------------------------------------- relations

@pytest.mark.parametrize("parts", [(3, 2), (2, 2, 1), (4, 1), (2, 1, 1)])
def test_defining_relations_small(parts):
    checks = defining_relation_checks(Partition(parts), GENERIC)
    assert checks and all(ok for _, ok in checks)


def test_generator_relation_checks_pass():
    checks = generator_relation_checks(Partition((6, 3, 3, 1)), GENERIC)
    assert checks and all(ok for _, ok in checks)


@pytest.mark.parametrize("domain", [GENERIC, root_of_unity(3)], ids=["generic", "p3"])
def test_generator_matrices_satisfy_relations(domain):
    # the relation checks act on vectors; this checks the matrices themselves
    q_dom = domain.q()
    for n in range(2, 6):
        for parts in all_partitions(n):
            shape = Partition(parts)
            mats = {i: generator_matrix(shape, i, domain) for i in range(1, n)}
            identity = Matrix.identity(domain, mats[1].rows)
            for i in range(1, n):
                h = mats[i]
                assert h * h == h.scale(q_dom - domain.one()) + identity.scale(q_dom), (parts, i)
            for i in range(1, n - 1):
                a, b = mats[i], mats[i + 1]
                assert a * b * a == b * a * b, (parts, i)
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert mats[i] * mats[j] == mats[j] * mats[i], (parts, i, j)


def test_relation_check_names():
    shape = Partition((3, 2, 1))
    expected = [
        "quadratic h1", "quadratic h2", "quadratic h3", "quadratic h4", "quadratic h5",
        "braid h1,h2", "braid h2,h3", "braid h3,h4", "braid h4,h5",
        "commutation h1,h3", "commutation h1,h4", "commutation h1,h5",
        "commutation h2,h4", "commutation h2,h5", "commutation h3,h5",
    ]
    assert [name for name, _ in defining_relation_checks(shape, GENERIC)] == expected
    assert [name for name, _ in generator_relation_checks(shape, GENERIC)] == [
        f"{name} (generator vector)" for name in expected
    ]


def alternative_reduced_word(w):
    # peel the largest left descent first (still a reduced word)
    pos = [0] * (w.n + 1)
    for i, v in enumerate(w.images):
        pos[v] = i
    word = []
    while True:
        for v in range(w.n - 1, 0, -1):
            if pos[v] > pos[v + 1]:
                word.append(v)
                pos[v], pos[v + 1] = pos[v + 1], pos[v]
                break
        else:
            return tuple(word)


def test_word_action_is_well_defined():
    # h(w) must not depend on the chosen reduced word
    rng = random.Random(3)
    basis = enumerate_standard(S32)
    checked = 0
    while checked < 100:
        images = list(range(1, 6))
        rng.shuffle(images)
        w = Permutation(tuple(images))
        word_a = reduced_word(w)
        word_b = alternative_reduced_word(w)
        if word_a == word_b:
            continue
        checked += 1
        for t in basis:
            v = SpechtVector.basis_vector(t, GENERIC)
            assert apply_word(word_a, v) == apply_word(word_b, v)


# --------------------------------------------------------------- annihilators

def test_column_elements():
    assert [e.anchor for e in column_elements(Partition((6, 3, 3, 1)))] == [1, 2, 3, 5, 6, 8, 9]
    assert column_elements(Partition((6,))) == ()
    assert [e.anchor for e in column_elements(S32)] == [1, 3]


def test_garnir_anchor_set():
    assert garnir_anchors(Partition((6, 3, 3, 1))) == (1, 2, 3, 5, 6, 7, 8, 11, 12)


def test_garnir_element_rendered_forms():
    shape = Partition((6, 3, 3, 1))
    assert garnir_element(shape, 11).rendered() == "q - h11"
    assert garnir_element(shape, 8).rendered() == "q^3 - q^2*h10 + q*h9*h10 - h8*h9*h10"
    assert garnir_element(shape, 6).rendered() == (
        "q^4 - q^3*h7 + q^2*h6*h7 + q^2*h8*h7 - q*h6*h8*h7 + h7*h6*h8*h7"
    )


def test_garnir_element_internal_form():
    shape = Partition((6, 3, 3, 1))
    element = garnir_element(shape, 11)
    assert element.terms(GENERIC) == (
        (LaurentScalar(1), ()),
        (LaurentScalar({-1: -1}), (11,)),
    )


def test_garnir_element_term_count_is_binomial():
    # interval {a..d} splits into blocks of sizes b-a+1 and d-b
    from math import comb

    shape = Partition((6, 3, 3, 1))
    base = superstandard(shape)
    heights = shape.column_heights()
    for a in garnir_anchors(shape):
        r, c = base.position(a)
        d = base.entry(r, c + 1)
        b = base.entry(heights[c] - 1, c)
        assert len(garnir_element(shape, a).words) == comb(d - a + 1, b - a + 1)


def reference_garnir_words(shape, a):
    """The minimal-length coset representatives of S_{a..b} x S_{b+1..d}
    (d the right neighbour of a, b the bottom of a's column in the
    superstandard tableau): images increasing on both blocks, as reduced
    words in (length, word) order."""
    base = superstandard(shape)
    r, c = base.position(a)
    b, d = base.entry(shape.column_heights()[c] - 1, c), base.entry(r, c + 1)
    words = []
    for left in combinations(range(a, d + 1), b - a + 1):
        images = list(range(1, shape.n + 1))
        images[a - 1:d] = list(left) + [v for v in range(a, d + 1) if v not in left]
        words.append(reduced_word(Permutation(tuple(images))))
    return tuple(sorted(words, key=lambda w: (len(w), w)))


def test_annihilators_match_the_superstandard_reference():
    for n in range(1, 11):
        for parts in all_partitions(n):
            shape = Partition(parts)
            base = superstandard(shape)
            assert garnir_anchors(shape) == tuple(sorted(v for row in base.rows for v in row[:-1]))
            for a in garnir_anchors(shape):
                assert garnir_element(shape, a).words == reference_garnir_words(shape, a), (parts, a)
            bottoms = {column[-1] for column in map(base.column, range(len(base.rows[0])))}
            assert [e.anchor for e in column_elements(shape)] == \
                [v for v in range(1, n + 1) if v not in bottoms], parts


def test_garnir_element_row_end_rejected():
    for a in (0, 4, 5, 6):
        with pytest.raises(ValueError):
            garnir_element(S32, a)


@pytest.mark.parametrize("parts", [(6, 3, 3, 1), (3, 2), (6,)])
def test_verify_annihilators_generic(parts):
    assert verify_annihilators(Partition(parts), GENERIC)


def test_verify_annihilators_specialized():
    assert verify_annihilators(S32, root_of_unity(3))


def test_annihilator_matrices_kill_the_submodule_vector():
    domain = root_of_unity(3)
    mu = Partition((4, 1))
    v = SpechtVector.from_terms(
        S32,
        {Tableau.parse("1,3,5/2,4"): domain.one(), Tableau.parse("1,3,4/2,5"): domain.one()},
        domain,
    )
    module = specht_module(S32, domain)
    terms = module.terms(v.coords)
    for element in list(column_elements(mu)) + list(garnir_elements(mu)):
        assert module.apply_element(element.terms(domain), terms) == {}, str(element)


# ------------------------------------------------------------------- traces

def test_character_traces():
    assert character_trace(S32, (), GENERIC) == LaurentScalar(5)
    assert character_trace(S32, (1,), GENERIC) == LaurentScalar({1: 3, 0: -2})
    assert character_trace(Partition((1, 1)), (1,), GENERIC) == LaurentScalar(-1)


# ------------------------------------------------------------------ registry

@pytest.mark.parametrize("p", [None, 3, 4], ids=["generic", "p3", "p4"])
@pytest.mark.parametrize("parts", [(3, 2), (4, 2, 1)])
def test_fresh_module_matches_registry(parts, p):
    shape = Partition(parts)
    domain = GENERIC if p is None else root_of_unity(p)
    fresh = SpechtModule(shape, domain)
    dim = len(fresh.basis)
    fresh_mats = [Matrix.from_columns(domain, dim, [fresh.act_generator(i, {j: domain.one()})
                                                    for j in range(dim)])
                  for i in range(1, shape.n)]
    specht_module.cache_clear()
    assert fresh_mats == [generator_matrix(shape, i, domain) for i in range(1, shape.n)]


@pytest.mark.parametrize("p", [None, 3], ids=["generic", "p3"])
@pytest.mark.parametrize("parts", [(3, 2), (4, 2, 1), (2, 2, 2)])
def test_module_owns_its_basis(parts, p):
    shape = Partition(parts)
    module = SpechtModule(shape, GENERIC if p is None else root_of_unity(p))
    assert module.basis == enumerate_standard(shape)
    assert len(module.index) == len(module.basis)
    assert all(module.basis[i] == t for t, i in module.index.items())


def test_registry_keeps_one_module():
    shapes = [Partition(parts) for parts in
              [(2,), (2, 1), (3, 1), (2, 2), (3, 2), (2, 2, 1), (4, 1), (3, 1, 1), (3, 3), (4, 2)]]
    for shape in shapes:
        generator_matrix(shape, 1, GENERIC)
        verify_annihilators(shape, root_of_unity(3))
        assert specht_module.cache_info().currsize <= 1


def tableau_of_word(word, shape):
    """The tableau of the shape whose column reading word is word (validated)."""
    heights = shape.column_heights()
    columns, start = [], 0
    for height in heights:
        columns.append(word[start:start + height])
        start += height
    return Tableau(tuple(tuple(col[r] for col in columns if len(col) > r)
                         for r in range(heights[0])))


@pytest.mark.parametrize("parts", [(3, 2, 1), (4, 2, 1), (3, 3, 2), (2, 2, 2, 1)])
def test_memo_keys_are_column_sorted_and_nonstandard(parts):
    shape = Partition(parts)
    module = SpechtModule(shape, GENERIC)
    for i in range(1, shape.n):
        for j in range(len(module.basis)):
            module.image(i, j)
    rng = random.Random(5)
    for _ in range(20):
        entries = rng.sample(range(1, shape.n + 1), shape.n)
        rows = [entries[sum(parts[:r]):sum(parts[:r + 1])] for r in range(len(parts))]
        module.straighten({Tableau(tuple(map(tuple, rows))): GENERIC.one()})
    assert module.memo
    for word in module.memo:
        t = tableau_of_word(word, shape)
        assert not t.is_standard(), t
        assert all(list(t.column(c)) == sorted(t.column(c)) for c in range(parts[0])), t


@pytest.mark.parametrize("p", [None, 3, 4], ids=["generic", "p3", "p4"])
def test_generator_matrix_columns_are_generator_images(p):
    # the matrix reads the action table; the columns come from apply_generator
    # in a fresh module, on the basis vectors in reverse order, so the memo
    # fills in another order
    domain = GENERIC if p is None else root_of_unity(p)
    for n in range(2, 7):
        for parts in all_partitions(n):
            shape = Partition(parts)
            basis = enumerate_standard(shape)
            for i in range(1, n):
                matrix = generator_matrix(shape, i, domain)
                specht_module.cache_clear()
                columns = [apply_generator(i, SpechtVector.basis_vector(t, domain)).coords
                           for t in reversed(basis)][::-1]
                assert matrix.entries == tuple(zip(*columns)), (parts, i)


@pytest.mark.parametrize("p", [None, 3, 4], ids=["generic", "p3", "p4"])
def test_product_and_sum_tables_are_exact_and_per_module(p):
    shape = Partition((4, 3, 2, 1))
    domain = GENERIC if p is None else root_of_unity(p)
    specht_module.cache_clear()
    module = specht_module(shape, domain)
    for i in range(1, shape.n):
        generator_matrix(shape, i, domain)
    assert module.products and module.sums
    for key, c in module.products.items():
        if isinstance(key, int):
            # the scale -(-q)^e of a Garnir candidate e inversions shorter
            assert c == -domain.neg_q_power(key)
        else:
            a, b = key
            assert c == a * b
    for (a, b), c in module.sums.items():
        assert c == a + b
    # every stored coefficient is one shared object: a table value, one or q - 1
    stored = {id(c) for expansion in (*module.memo.values(), *module._images.values())
              for _, c in expansion}
    assert len(stored) <= len(module.products) + len(module.sums) + 2
    specht_module.cache_clear()
    fresh = specht_module(shape, domain)
    assert fresh is not module
    assert not fresh.products and not fresh.sums and not fresh.memo
