import pytest

from qspecht.combinat import Partition, Tableau, hook_count, superstandard
from qspecht.linalg import joint_kernel
from qspecht.roots import (
    TwoRowTableauView,
    admissible_multiplier,
    analyze,
    enumerate_p_root_standard,
    find_submodule_generators,
    irreducible_dimension,
    is_p_regular,
    is_p_root_standard,
    is_s_strip_standard,
    strip_criterion_equivalence,
    submodule_dimension,
)
from qspecht.scalar import root_of_unity
from qspecht.specht import (
    SpechtVector,
    column_elements,
    garnir_elements,
    specht_module,
)


def two_row_shapes(max_n):
    for n in range(1, max_n + 1):
        for second in range(0, n // 2 + 1):
            yield Partition((n - second, second) if second else (n,))


def shapes_of(n, rows, maxpart=None):
    """Partitions of n with at most `rows` parts, as tuples."""
    if n == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(n, maxpart or n), 0, -1):
        for rest in shapes_of(n - first, rows - 1, first):
            yield (first,) + rest


def test_is_p_regular():
    assert is_p_regular(Partition((3, 2)), 3)
    assert not is_p_regular(Partition((2, 2, 2)), 3)
    assert is_p_regular(Partition((4, 1)), 3)
    assert not is_p_regular(Partition((1, 1)), 2)
    with pytest.raises(ValueError):
        is_p_regular(Partition((2,)), 1)


@pytest.mark.parametrize("parts,p,reducible,mu", [
    ((5, 4), 3, True, (6, 3)),
    ((6, 4), 3, False, None),
    ((7, 4), 3, True, (9, 2)),
    ((8, 3), 3, False, None),
    ((8, 2), 5, False, None),
    ((9, 3), 5, True, (12,)),
])
def test_analyze_table(parts, p, reducible, mu):
    report = analyze(Partition(parts), p)
    assert report.reducible is reducible
    if reducible:
        assert report.submodule_shape == Partition(mu)
        assert is_p_regular(report.submodule_shape, p)
        assert report.strip is not None
        assert report.strip.length == report.strip_multiplier * p
        assert 1 <= report.strip.second_row_boxes <= p - 1
        assert report.submodule_dim + report.quotient_dim == report.specht_dim
    else:
        assert report.quotient_dim == report.specht_dim
        assert report.submodule_shape is None


def test_analyze_validation():
    with pytest.raises(ValueError):
        analyze(Partition((3, 2, 1)), 3)
    with pytest.raises(ValueError):
        analyze(Partition((3, 2)), 2)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        analyze(Partition((3, 2)), 1025)


def test_admissible_multiplier_unique_when_present():
    for shape in two_row_shapes(12):
        for p in (3, 5, 7):
            l1 = shape.parts[0]
            l2 = shape.parts[1] if len(shape.parts) > 1 else 0
            lo, hi = l1 - l2 + 2, min(l1 + 1, l1 - l2 + p)
            multiples = [m for m in range(lo, hi + 1) if m % p == 0]
            assert len(multiples) <= 1
            k = admissible_multiplier(shape, p)
            assert (k is not None) == bool(multiples)
            if k is not None:
                assert k * p == multiples[0]


def test_strip_criterion_equivalence():
    assert strip_criterion_equivalence(Partition((5, 4)), 3)
    assert strip_criterion_equivalence(Partition((7, 4)), 3)
    assert strip_criterion_equivalence(Partition((6, 4)), 3)
    for shape in two_row_shapes(11):
        for p in (3, 5, 7):
            assert strip_criterion_equivalence(shape, p)


def test_dimension_values():
    assert irreducible_dimension(Partition((6, 5)), 3) == 132 + 44 - 165 - 10 == 1
    assert irreducible_dimension(Partition((3, 2)), 3) == 1
    assert irreducible_dimension(Partition((6, 4)), 3) == hook_count(Partition((6, 4)))


def test_s_strip_standard_positions():
    view = TwoRowTableauView.from_tableau(Tableau.parse("1,2,3,4,6,8,10/5,7,9,11"))
    assert is_s_strip_standard(view, 6, 1)  # 5 < 6
    assert is_s_strip_standard(view, 6, 4)  # vacuous: position 4 > 7-6+2
    bad = TwoRowTableauView.from_tableau(Tableau.parse("1,2,3,4,5,8,10/6,7,9,11"))
    assert not is_s_strip_standard(bad, 6, 1)  # 6 > 5
    with pytest.raises(ValueError):
        is_s_strip_standard(view, 6, 0)


def test_p_root_standard_fixtures():
    accepted = [
        "1,2,3,4,6,8,10/5,7,9,11",
        "1,3,4,5,6,7,11/2,8,9,10",
        "1,2,3,4,5,9,10/6,7,8,11",
    ]
    rejected = [
        "1,3,5,6,7,8,9/2,4,10,11",
        "1,3,4,5,6,7,10/2,8,9,11",
        "1,2,3,4,5,8,10/6,7,9,11",
    ]
    for text in accepted:
        assert is_p_root_standard(Tableau.parse(text), 3), text
    for text in rejected:
        assert not is_p_root_standard(Tableau.parse(text), 3), text


def test_p_root_standard_rejects_deep_shapes():
    with pytest.raises(ValueError):
        is_p_root_standard(Tableau.parse("1,2/3,4/5"), 3)


def test_enumerate_p_root_standard():
    chosen = enumerate_p_root_standard(Partition((7, 4)), 3)
    texts = {str(t) for t in chosen}
    assert "1,2,3,4,6,8,10/5,7,9,11" in texts
    assert "1,3,5,6,7,8,9/2,4,10,11" not in texts
    assert len(enumerate_p_root_standard(Partition((6, 5)), 3)) == 1
    assert len(enumerate_p_root_standard(Partition((6, 4)), 3)) == 90 == hook_count(Partition((6, 4)))


def test_theorem_count_matches_dimension():
    for shape in two_row_shapes(10):
        for p in (3, 5, 7):
            assert len(enumerate_p_root_standard(shape, p)) == irreducible_dimension(shape, p)


def test_oracle_worked_example():
    from qspecht.specht import apply_generator

    lam, mu = Partition((3, 2)), Partition((4, 1))
    domain = root_of_unity(3)
    generators = find_submodule_generators(lam, mu, 3)
    assert len(generators) == 1
    # the kernel vector is (1 + h_4) applied to the superstandard vector
    base = SpechtVector.basis_vector(superstandard(lam), domain)
    expected = base + apply_generator(4, base)
    assert expected.terms() == {
        Tableau.parse("1,3,5/2,4"): domain.one(),
        Tableau.parse("1,3,4/2,5"): domain.one(),
    }
    assert generators[0] == expected
    assert submodule_dimension(lam, generators, 3) == 4
    assert hook_count(lam) - submodule_dimension(lam, generators, 3) == 1


def test_generated_span_rank_is_four():
    # the rank of the word images of the kernel vector: a closure with no maps
    from itertools import product

    from qspecht.linalg import closure_dimension
    from qspecht.specht import apply_word

    lam = Partition((3, 2))
    (generator,) = find_submodule_generators(lam, Partition((4, 1)), 3)
    images = []
    for length in range(0, 4):
        for word in product(range(1, 5), repeat=length):
            coords = apply_word(word, generator).coords
            images.append({k: x for k, x in enumerate(coords) if x})
    assert closure_dimension(root_of_unity(3), images, ()) == 4


def test_oracle_empty_when_irreducible():
    assert find_submodule_generators(Partition((3, 2)), Partition((4, 1)), 5) == ()


def test_oracle_same_shape_contains_generator():
    lam = Partition((3, 2))
    domain = root_of_unity(3)
    generators = find_submodule_generators(lam, lam, 3)
    base = SpechtVector.basis_vector(superstandard(lam), domain)
    assert base in generators


def test_oracle_validation():
    with pytest.raises(ValueError):
        find_submodule_generators(Partition((3, 2)), Partition((3, 1)), 3)
    with pytest.raises(ValueError):
        find_submodule_generators(Partition((2, 2)), Partition((1, 1, 1, 1)), 3)
    with pytest.raises(ValueError):
        find_submodule_generators(Partition((3, 2)), Partition((4, 1)), 2)


def test_submodule_dimension_edges():
    lam = Partition((3, 2))
    assert submodule_dimension(lam, (), 3) == 0
    domain = root_of_unity(3)
    base = SpechtVector.basis_vector(superstandard(lam), domain)
    assert submodule_dimension(lam, [base], 3) == hook_count(lam)


def test_oracle_agrees_with_window_small():
    # the full n <= 8 sweep lives in the acceptance suite; spot-check n <= 6
    for shape in two_row_shapes(6):
        for p in (3, 5):
            report = analyze(shape, p)
            hits = []
            for mu in two_row_shapes(shape.n):
                if mu.n != shape.n or mu == shape or not is_p_regular(mu, p):
                    continue
                if find_submodule_generators(shape, mu, p):
                    hits.append(mu)
            if report.reducible:
                assert hits == [report.submodule_shape]
            else:
                assert hits == []


@pytest.mark.parametrize("p", [4, 6])
def test_composite_order_oracles_agree(p):
    # window, oracle, p-root count and closure dimension agree at composite p
    for lam in two_row_shapes(8):
        report = analyze(lam, p)
        hits, generators = [], ()
        for mu in two_row_shapes(lam.n):
            if mu.n != lam.n or mu == lam or not is_p_regular(mu, p):
                continue
            kernel = find_submodule_generators(lam, mu, p)
            if kernel:
                hits.append(mu)
                generators = kernel
        assert len(enumerate_p_root_standard(lam, p)) == report.quotient_dim, lam
        if report.reducible:
            assert hits == [report.submodule_shape], lam
            assert submodule_dimension(lam, generators, p) == report.submodule_dim, lam
            assert report.submodule_dim + report.quotient_dim == report.specht_dim, lam
        else:
            assert hits == [], lam


def stacked_reference(lam, mu, p):
    """The joint kernel as the kernel of one map that stacks every
    annihilator's image: image key k of annihilator a becomes a * dim + k."""
    domain = root_of_unity(p)
    module = specht_module(lam, domain)
    dim = len(module.basis)
    elements = [e.terms(domain) for e in list(column_elements(mu)) + list(garnir_elements(mu))]

    def stacked(v):
        return {a * dim + k: x for a, terms in enumerate(elements)
                for k, x in module.apply_element(terms, v).items()}

    return [module.coords(v) for v in joint_kernel(domain, dim, [stacked])]


def oracle_cases():
    """Acceptance criterion 10, test_composite_order_oracles_agree, and every
    pair of shapes with at most three rows and n <= 6, each case once."""
    shapes = [Partition(parts) for n in range(2, 7) for parts in shapes_of(n, 3)]
    cases = [(lam, mu, p) for lam in two_row_shapes(8) for mu in two_row_shapes(8)
             for p in (3, 4, 5, 6)]
    cases += [(lam, mu, p) for lam in shapes for mu in shapes for p in (3, 4, 5)]
    return dict.fromkeys(
        (lam, mu, p) for lam, mu, p in cases
        if mu.n == lam.n and mu != lam and is_p_regular(mu, p))


def test_oracle_equals_stacked_annihilator_kernel():
    hits = 0
    for lam, mu, p in oracle_cases():
        got = [v.coords for v in find_submodule_generators(lam, mu, p)]
        assert got == stacked_reference(lam, mu, p), (lam, mu, p)
        hits += bool(got)
    assert hits > 0
