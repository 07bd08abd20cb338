import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qspecht.scalar import (
    GENERIC,
    CyclotomicScalar,
    LaurentScalar,
    MAX_ORDER,
    MAX_SPAN,
    ScalarDomain,
    cyclotomic_polynomial,
    fold,
    root_of_unity,
    specialize,
)

q = LaurentScalar.q_power(1)
one = LaurentScalar(1)


# prime and composite root-of-unity orders
ORDERS = st.sampled_from([3, 4, 5, 6, 7, 9, 12])

laurent_scalars = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentScalar)


def test_difference_of_squares():
    assert (q - 1) * (q + 1) == LaurentScalar({2: 1, 0: -1})


def test_negative_power_sign_parity():
    assert LaurentScalar.neg_q_power(-2) == LaurentScalar({-2: 1})
    assert LaurentScalar.neg_q_power(-3) == LaurentScalar({-3: -1})
    assert LaurentScalar.neg_q_power(-2) == LaurentScalar.q_power(-1) * LaurentScalar.q_power(-1)


def test_discriminant_identity():
    # (q-1)^2 + 4q = (q+1)^2
    assert (q - 1) * (q - 1) + 4 * q == (q + 1) * (q + 1)


@pytest.mark.parametrize("p,expected", [
    (3, {2: 1, 1: 1, 0: 1}),
    (5, {4: 1, 3: 1, 2: 1, 1: 1, 0: 1}),
    (6, {2: 1, 1: -1, 0: 1}),
])
def test_cyclotomic_polynomial(p, expected):
    assert cyclotomic_polynomial(p) == LaurentScalar(expected)


def test_cyclotomic_polynomial_product_oracle():
    # q^n - 1 factors as the product of Phi_d over d | n, with Phi_1 = q - 1
    for n in range(1, 13):
        product = q - 1
        for d in range(2, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product == LaurentScalar({n: 1, 0: -1}), n


def test_cyclotomic_polynomial_rejects_small_p():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(1)


def dense_mod_p_fold(x, p):
    # the exponent fold by q^p = 1 on a dense list of length p, kept as the
    # reference for specialize
    dense = [0] * p
    for e, c in x.terms.items():
        dense[e % p] += c
    return CyclotomicScalar(p, dense)


def test_specialize_examples():
    assert specialize(one + q + q * q, 3).is_zero()
    assert specialize(LaurentScalar.q_power(3), 3) == 1
    assert specialize(LaurentScalar.q_power(-1), 5) == root_of_unity(5).q_power(4)


def test_specialize_rejects_p2():
    with pytest.raises(ValueError):
        specialize(q, 2)
    with pytest.raises(ValueError):
        root_of_unity(2)


def test_cyclotomic_field_inverse():
    x = CyclotomicScalar(3, (1, 2))  # 1 + 2q
    assert x * x.inverse() == 1
    dom = root_of_unity(5)
    assert dom.from_int(1) / dom.q_power(2) == dom.q_power(3)
    with pytest.raises(ZeroDivisionError):
        CyclotomicScalar(3).inverse()


def test_cyclotomic_canonical_zero():
    x = CyclotomicScalar(3, (Fraction(1, 2), 3))
    assert (x - x).coeffs == ()
    assert (x - x).is_zero()


def test_mixed_domains_raise():
    with pytest.raises(TypeError):
        q + root_of_unity(3).from_int(1)
    with pytest.raises(ValueError):
        root_of_unity(3).from_int(1) + root_of_unity(5).from_int(1)


@given(laurent_scalars, laurent_scalars, laurent_scalars)
def test_laurent_distributivity(x, y, z):
    assert (x + y) * z == x * z + y * z


@given(laurent_scalars, laurent_scalars, ORDERS)
def test_specialize_is_ring_homomorphism(x, y, p):
    assert specialize(x, p) == dense_mod_p_fold(x, p)
    assert specialize(x * y, p) == specialize(x, p) * specialize(y, p)
    assert specialize(x + y, p) == specialize(x, p) + specialize(y, p)


@given(ORDERS)
def test_specialize_kills_cyclotomic(p):
    assert specialize(cyclotomic_polynomial(p), p).is_zero()


@given(laurent_scalars, laurent_scalars, laurent_scalars, ORDERS)
def test_cyclotomic_distributivity(x, y, z, p):
    a, b, c = specialize(x, p), specialize(y, p), specialize(z, p)
    assert (a + b) * c == a * c + b * c


@given(laurent_scalars, ORDERS)
def test_cyclotomic_inverse_roundtrip(x, p):
    value = specialize(x, p)
    if value:
        assert value * value.inverse() == 1


def test_rendering_grammar():
    assert str(LaurentScalar({0: -1, 2: 1, 3: -1})) == "-1 + q^2 - q^3"
    assert str(LaurentScalar(0)) == "0"
    assert str(q) == "q"
    assert str(LaurentScalar({-1: 2})) == "2q^-1"
    assert str(LaurentScalar({1: -1})) == "-q"


@given(laurent_scalars)
def test_rendering_roundtrip(x):
    assert GENERIC.parse(str(x)) == x


@given(laurent_scalars, ORDERS)
def test_cyclotomic_rendering_roundtrip(x, p):
    value = specialize(x, p)
    assert root_of_unity(p).parse(str(value)) == value


def test_domain_factories():
    assert GENERIC.is_generic
    assert GENERIC.q_power(-2) == LaurentScalar.q_power(-2) == LaurentScalar({-2: 1})
    assert GENERIC.neg_q_power(-3) == LaurentScalar({-3: -1})
    assert GENERIC.zero() == LaurentScalar(0) and GENERIC.one() == LaurentScalar(1)
    dom = root_of_unity(3)
    assert dom.neg_q_power(-1) == CyclotomicScalar(3, (0, 0, -1))
    assert dom.parse("1 + q") == CyclotomicScalar(3, (1, 1))
    with pytest.raises(ValueError, match="non-integer"):
        GENERIC.parse("1/2 + q")
    assert str(dom) == "root-of-unity p=3"
    assert not dom.contains(q)
    assert GENERIC.contains(q)
    # every construction path of a residue agrees with specialize
    for p in (3, 4, 5, 6):
        dom = root_of_unity(p)
        assert dom.zero() == CyclotomicScalar(p) == specialize(LaurentScalar(0), p)
        assert dom.from_int(-7) == CyclotomicScalar(p, (-7,)) == specialize(LaurentScalar(-7), p)
        for e in range(-2 * p, 2 * p + 1):
            for power in ("q_power", "neg_q_power"):
                generic = getattr(GENERIC, power)(e)
                assert getattr(dom, power)(e) == specialize(generic, p) == \
                    dense_mod_p_fold(generic, p), (p, e, power)


def test_wide_exponent_span_is_rejected():
    with pytest.raises(ValueError, match="span of 1000001"):
        LaurentScalar({0: 1, 10**6: 1})
    for domain in (GENERIC, root_of_unity(3)):
        with pytest.raises(ValueError, match="span of 1000001"):
            domain.parse("1 + q^1000000")
        widest = domain.from_int(1) + domain.q_power(MAX_SPAN - 1)
        assert domain.parse(f"1 + q^{MAX_SPAN - 1}") == widest


def test_malformed_text_is_a_value_error_only():
    # a zero denominator has no value, and no scalar renders as empty text
    for domain in (GENERIC, root_of_unity(3)):
        for text in ("1/0", "1 + 1/0q", "", "   "):
            with pytest.raises(ValueError, match="scalar"):
                domain.parse(text)


def test_pickle_and_deepcopy_keep_value_hash_and_str():
    for x in (LaurentScalar({-2: 3, 0: -1, 4: 1}), CyclotomicScalar(5, (Fraction(1, 2), 3, -1)),
              GENERIC.one(), root_of_unity(4).one()):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x)
            assert y == x and hash(y) == hash(x) and str(y) == str(x)


def test_domain_rejects_small_p():
    with pytest.raises(ValueError):
        ScalarDomain(2)


def test_orders_above_max_order_are_refused_at_once():
    assert root_of_unity(MAX_ORDER).one() == 1
    with pytest.raises(ValueError, match=f"<= MAX_ORDER = {MAX_ORDER}, got {MAX_ORDER + 1}"):
        root_of_unity(MAX_ORDER + 1)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        cyclotomic_polynomial(10**6)
    with pytest.raises(ValueError, match="MAX_ORDER"):
        specialize(q, MAX_ORDER + 1)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def rational_residues(draw):
    p = draw(ORDERS)
    coeffs = draw(st.lists(rationals, max_size=p + 2))
    return CyclotomicScalar(p, coeffs)


def is_integral(x):
    return all(type(c) is int for c in x.coeffs)


@given(laurent_scalars, laurent_scalars, laurent_scalars, ORDERS)
def test_specialize_homomorphism_stays_integral(x, y, z, p):
    a, b, c = specialize(x, p), specialize(y, p), specialize(z, p)
    for laurent, residue in [(x + y, a + b), (x * y, a * b), (x * y - z, a * b - c),
                             (-(x + z) * y, -(a + c) * b)]:
        assert residue == specialize(laurent, p)
        assert is_integral(residue)


def test_integer_residues_keep_integral_coeffs():
    x = CyclotomicScalar(5, (3, -1, 0, 7, 2, 9, -4))  # degree 6 reduces below 4
    y = root_of_unity(5).q_power(3) - 2
    for value in (x, y, x + y, x - y, x * y, x * x * y, -x, 3 * x, x + 1):
        assert is_integral(value)
    assert not is_integral(x.inverse())


@given(ORDERS, st.integers(min_value=-20, max_value=20))
@example(p=3, n=2)
def test_fraction_with_integral_value_is_an_int(p, n):
    x = CyclotomicScalar(p, (Fraction(2 * n, 2),))
    y = CyclotomicScalar(p, (n,))
    assert x == y
    assert hash(x) == hash(y)
    assert str(x) == str(y) == str(n)
    assert x.coeffs == y.coeffs and is_integral(x)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
@given(st.integers() | st.integers(-3, 3), laurent_scalars)
@example(c=1, r=LaurentScalar(0))
@example(c=0, r=LaurentScalar(0))
@example(c=-1, r=LaurentScalar(0))
@example(c=2**64, r=LaurentScalar(0))
def test_scalar_equal_to_an_int_hashes_as_the_int(p, c, r):
    # c plus a multiple of Phi_p is the residue c
    residue = specialize(LaurentScalar(c) + cyclotomic_polynomial(p) * r, p)
    for x in (LaurentScalar(c), LaurentScalar({0: c}), residue,
              root_of_unity(p).from_int(c), CyclotomicScalar(p, (Fraction(2 * c, 2),))):
        assert x == c
        assert hash(x) == hash(c)
        assert {x: True}.get(c) and {c: True}.get(x)
    for x in (LaurentScalar(c) + q, residue + root_of_unity(p).q()):
        assert x != c and hash(x) == hash(x)


@given(rational_residues())
def test_rational_residue_parse_roundtrip(x):
    assert root_of_unity(x.p).parse(str(x)) == x
    assert hash(root_of_unity(x.p).parse(str(x))) == hash(x)


@given(rational_residues(), st.integers(min_value=1, max_value=30))
def test_rational_residue_scaling(x, d):
    # coeffs are the residue's rational values whatever the denominator
    scaled = CyclotomicScalar(x.p, [c * d for c in x.coeffs])
    assert scaled == x * d
    assert CyclotomicScalar(x.p, x.coeffs) == x
    if x:
        assert x * x.inverse() == 1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        CyclotomicScalar(3, (0.1,))
    with pytest.raises(TypeError):
        CyclotomicScalar(5, (1, 2.0))
    with pytest.raises(TypeError):
        LaurentScalar({0: 1.5})
    with pytest.raises(TypeError):
        LaurentScalar({2: 1, 3: Fraction(1, 2)})
    for bad in (1.5, Fraction(1, 2), "1", {1.5: 1}, {Fraction(2, 1): 1}):
        with pytest.raises(TypeError):
            LaurentScalar(bad)
    for domain in (GENERIC, root_of_unity(3)):
        for factory, bad in ((domain.from_int, 1.5), (domain.q_power, 1.5),
                             (domain.neg_q_power, Fraction(2, 1))):
            with pytest.raises(TypeError):
                factory(bad)


@given(laurent_scalars, laurent_scalars, st.integers(-5, 5), ORDERS)
def test_subtraction_is_addition_of_the_negation(x, y, n, p):
    a, b = specialize(x, p), specialize(y, p)
    for u, v in [(x, y), (a, b)]:
        assert u - v == u + (-v)
        assert u - n == u + (-n)
        assert n - u == -u + n
        assert (u - u).is_zero()
    # cancellation at either end leaves the canonical form of x
    difference = (x + y) - y
    assert difference.terms == x.terms
    assert hash(difference) == hash(x)
    assert str(difference) == str(x)


# ---------------------------------------------- fold and the product fast paths

@st.composite
def fold_cases(draw):
    """(domain, acc, pairs, scale): acc has no stored zeros; pairs may hold
    explicit zeros, repeated keys and terms that cancel entries of acc."""
    p = draw(st.sampled_from([None, 3, 4, 5, 7]))
    domain = ScalarDomain(p)

    def scalar():
        x = draw(laurent_scalars)
        return x if p is None else specialize(x, p)

    acc = {k: x for k, x in ((k, scalar()) for k in draw(st.sets(st.integers(0, 5)))) if x}
    pairs = [(draw(st.integers(0, 7)), scalar()) for _ in range(draw(st.integers(0, 6)))]
    pairs += [(k, -x) for k, x in pairs + list(acc.items()) if draw(st.booleans())]
    draw(st.randoms(use_true_random=False)).shuffle(pairs)
    scale = draw(st.sampled_from([domain.zero(), domain.one(), domain.from_int(-1), scalar()]))
    return domain, acc, pairs, scale


@given(fold_cases())
def test_fold_matches_the_naive_accumulate(case):
    domain, acc, pairs, scale = case
    expected = dict(acc)
    for k, x in pairs:
        value = expected.get(k, domain.zero()) + scale * x
        if value:
            expected[k] = value
        elif k in expected:
            del expected[k]
    fold(acc, iter(pairs), scale)
    assert acc == expected
    assert all(acc.values())


@pytest.mark.parametrize("domain", [GENERIC, root_of_unity(5)])
def test_fold_by_one_stores_the_scalars_themselves(domain):
    x, y = domain.q_power(2), domain.from_int(3) * domain.q()
    acc = {0: domain.from_int(7), 2: domain.zero() - y - y}
    fold(acc, [(1, x), (3, y), (2, y)], domain.one())
    assert acc[1] is x and acc[3] is y
    assert acc == {0: domain.from_int(7), 1: x, 2: -y, 3: y}


def double_loop_product(a, b):
    # the sparse dict multiply, kept as the reference for the dense product
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


monomials = st.builds(lambda e, c: LaurentScalar({e: c}),
                      st.integers(-6, 6), st.integers(-9, 9).filter(bool))


@given(monomials | laurent_scalars, laurent_scalars)
def test_monomial_product_is_the_double_loop(m, x):
    expected = double_loop_product(m, x)
    for product in (m * x, x * m):
        assert product.terms == expected
        assert product == LaurentScalar(expected)
        assert hash(product) == hash(LaurentScalar(expected))
        assert str(product) == str(LaurentScalar(expected))


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
@given(st.data())
def test_short_coefficient_lists_with_trailing_zeros_are_canonical(p, data):
    degree = max(cyclotomic_polynomial(p).terms)
    trimmed = data.draw(st.lists(rationals, max_size=degree))
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    padding = data.draw(st.integers(1, degree - len(trimmed)) if len(trimmed) < degree
                        else st.just(0))
    x = CyclotomicScalar(p, trimmed + [0] * padding)
    y = CyclotomicScalar(p, trimmed)
    # a list as long as Phi_p goes through the long division
    z = CyclotomicScalar(p, trimmed + [0] * (degree + 1 - len(trimmed)))
    assert x == y == z
    assert hash(x) == hash(y) == hash(z)
    assert x.coeffs == y.coeffs == z.coeffs == tuple(trimmed)
