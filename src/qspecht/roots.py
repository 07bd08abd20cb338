"""Root-of-unity analysis of two-row Specht modules.

For q a primitive p-th root of unity, S^(l1,l2) is reducible exactly when
the diagram has a boundary strip of length kp with between 1 and p-1
boxes in the second row; equivalently when some integer k > 0 satisfies
l1 - l2 + 2 <= kp <= min(l1 + 1, l1 - l2 + p).  The window is narrower
than p, so k is unique.  In the reducible case the irreducible submodule
corresponds to the shape obtained by moving the strip into the top row,
the quotient is irreducible, and the quotient dimension is an
alternating sum of hook-length dimensions.

The p-root standard tableaux of the shape index a basis of the
irreducible quotient; their count reproduces the dimension formula.

A brute-force oracle, valid for any shapes, searches S^lambda for
vectors killed by every column and Garnir element of a candidate mu;
a nonzero kernel certifies the submodule.  The oracle and the submodule
closure apply the module's action to vectors and build no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .combinat import (
    BoundaryStrip,
    Partition,
    Tableau,
    boundary_strips,
    enumerate_standard,
    hook_count,
)
from .linalg import closure_dimension, joint_kernel
from .scalar import root_of_unity
from .specht import (
    SpechtVector,
    column_elements,
    garnir_elements,
    specht_module,
)


@dataclass(frozen=True)
class TwoRowTableauView:
    """Row access a_1..a_l1 / b_1..b_l2 for a tableau with at most two rows."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    @classmethod
    def from_tableau(cls, t: Tableau) -> "TwoRowTableauView":
        if len(t.rows) > 2:
            raise ValueError(f"tableau {t} has more than two rows")
        top = t.rows[0] if t.rows else ()
        bottom = t.rows[1] if len(t.rows) > 1 else ()
        return cls(top, bottom)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the two-row reducibility analysis at a root of unity."""

    shape: Partition
    p: int
    reducible: bool
    specht_dim: int
    quotient_dim: int
    strip_multiplier: int | None = None
    submodule_shape: Partition | None = None
    submodule_dim: int | None = None
    strip: BoundaryStrip | None = None


def is_p_regular(shape: Partition, p: int) -> bool:
    """No part repeated p or more times."""
    if p < 2:
        raise ValueError(f"p-regularity needs p >= 2, got {p}")
    return all(shape.parts.count(part) <= p - 1 for part in set(shape.parts))


def _two_row_parts(shape: Partition) -> tuple[int, int]:
    if len(shape.parts) > 2:
        raise ValueError(f"two-row analysis got shape {shape}")
    l1 = shape.parts[0] if shape.parts else 0
    l2 = shape.parts[1] if len(shape.parts) > 1 else 0
    return l1, l2


def admissible_multiplier(shape: Partition, p: int) -> int | None:
    """The unique k > 0 with l1-l2+2 <= kp <= min(l1+1, l1-l2+p), if any."""
    root_of_unity(p)  # validates the order
    l1, l2 = _two_row_parts(shape)
    lo = l1 - l2 + 2
    hi = min(l1 + 1, l1 - l2 + p)
    k = -(-lo // p)  # ceil
    if k > 0 and k * p <= hi:
        return k
    return None


def _dimension_sum(l1: int, l2: int, p: int) -> int:
    return sum(hook_count(Partition((l1 + j * p, l2 - j * p))) for j in range(l2 // p + 1))


def _submodule_parts(l1: int, l2: int, p: int) -> tuple[int, int]:
    """The parts of the submodule label mu of a reducible (l1, l2) at order p."""
    r = (l1 - l2) % p
    return l1 + p - 1 - r, l2 - p + 1 + r


def irreducible_dimension(shape: Partition, p: int) -> int:
    """Dimension of the irreducible quotient of S^shape at order p."""
    k = admissible_multiplier(shape, p)
    if k is None:
        return hook_count(shape)
    l1, l2 = _two_row_parts(shape)
    return _dimension_sum(l1, l2, p) - _dimension_sum(*_submodule_parts(l1, l2, p), p)


def analyze(shape: Partition, p: int) -> DecompositionReport:
    """Two-row reducibility, submodule label and dimensions at order p."""
    l1, l2 = _two_row_parts(shape)
    k = admissible_multiplier(shape, p)
    dim = hook_count(shape)
    if k is None:
        return DecompositionReport(
            shape=shape, p=p, reducible=False, specht_dim=dim, quotient_dim=dim
        )
    mu = Partition(_submodule_parts(l1, l2, p))
    strip = next(
        (s for s in boundary_strips(shape)
         if s.start_row == 1 and s.length == k * p and 1 <= s.second_row_boxes <= p - 1),
        None,
    )
    return DecompositionReport(
        shape=shape,
        p=p,
        reducible=True,
        specht_dim=dim,
        quotient_dim=irreducible_dimension(shape, p),
        strip_multiplier=k,
        submodule_shape=mu,
        submodule_dim=irreducible_dimension(mu, p),
        strip=strip,
    )


def strip_criterion_equivalence(shape: Partition, p: int) -> bool:
    """Boundary-strip and inequality formulations give the same verdict."""
    by_window = admissible_multiplier(shape, p) is not None
    by_strip = any(
        s.length % p == 0 and 1 <= s.second_row_boxes <= p - 1
        for s in boundary_strips(shape)
    )
    return by_window == by_strip


def is_s_strip_standard(view: TwoRowTableauView, s: int, i: int) -> bool:
    """b_i < a_(i+s-2), vacuously true when that top entry does not exist."""
    if not 1 <= i <= len(view.bottom):
        raise ValueError(f"position {i} out of range 1..{len(view.bottom)}")
    top_index = i + s - 2  # 1-based
    if top_index > len(view.top):
        return True
    return view.bottom[i - 1] < view.top[top_index - 1]


def is_p_root_standard(t: Tableau, p: int) -> bool:
    """Membership in the standard-tableau basis of the irreducible quotient.

    With no admissible strip multiplier (irreducible case) every standard
    tableau qualifies.  Otherwise the tableau must be kp-strip standard
    everywhere, or recover at some position right of the last failure by
    being ((k-1)p+2)-strip standard there.
    """
    k = admissible_multiplier(t.shape, p)
    if not t.is_standard():
        return False
    if k is None:
        return True
    view = TwoRowTableauView.from_tableau(t)
    positions = range(1, len(view.bottom) + 1)
    failures = [i for i in positions if not is_s_strip_standard(view, k * p, i)]
    if not failures:
        return True
    rightmost = failures[-1]
    fallback = (k - 1) * p + 2
    return any(
        is_s_strip_standard(view, fallback, j)
        for j in range(rightmost + 1, len(view.bottom) + 1)
    )


def enumerate_p_root_standard(shape: Partition, p: int) -> tuple[Tableau, ...]:
    """The p-root standard tableaux of the shape, in basis order."""
    return tuple(t for t in enumerate_standard(shape) if is_p_root_standard(t, p))


def find_submodule_generators(lam: Partition, mu: Partition, p: int) -> tuple[SpechtVector, ...]:
    """Exact basis of the joint kernel in S^lam of all annihilators of mu.

    A nonzero kernel certifies a vector behaving like the superstandard
    generator of S^mu, hence an irreducible submodule labelled mu; an
    empty kernel certifies there is none.
    """
    domain = root_of_unity(p)
    if lam.n != mu.n:
        raise ValueError(f"shapes {lam} and {mu} partition different n")
    if not is_p_regular(mu, p):
        raise ValueError(f"candidate shape {mu} is not {p}-regular")
    module = specht_module(lam, domain)
    elements = list(column_elements(mu)) + list(garnir_elements(mu))
    maps = [partial(module.apply_element, e.terms(domain)) for e in elements]
    return tuple(SpechtVector(lam, domain, module.coords(terms))
                 for terms in joint_kernel(domain, hook_count(lam), maps))


def submodule_dimension(lam: Partition, generators, p: int) -> int:
    """Dimension of the smallest generator-closed subspace containing them."""
    domain = root_of_unity(p)
    module = specht_module(lam, domain)
    vectors = []
    for v in generators:
        if v.shape != lam or v.domain != domain:
            raise ValueError("generator does not live in the requested module")
        vectors.append(module.terms(v.coords))
    maps = [partial(module.act_generator, i) for i in range(1, lam.n)]
    return closure_dimension(domain, vectors, maps)
