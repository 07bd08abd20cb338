import itertools
import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from qspecht.combinat import (
    BoundaryStrip,
    Partition,
    Permutation,
    Tableau,
    boundary_strips,
    enumerate_standard,
    hook_count,
    precedes,
    reduced_word,
    superstandard,
    tableau_distance,
    word_of_tableau,
)


def all_partitions(n, maxpart=None):
    if n == 0:
        yield ()
        return
    maxpart = maxpart or n
    for first in range(min(n, maxpart), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition.parse("6,3,3,1").n == 13
    assert str(Partition((3, 2))) == "3,2"


def test_tableau_validation_and_format():
    with pytest.raises(ValueError):
        Tableau(((1, 2), (2,)))
    t = Tableau.parse("1,3,5/2,4")
    assert t.shape == Partition((3, 2))
    assert str(t) == "1,3,5/2,4"
    assert t.is_standard()
    assert not Tableau.parse("2,3,5/1,4").is_standard()


def test_enumerate_standard_counts():
    assert len(enumerate_standard(Partition((3, 2)))) == 5
    assert len(enumerate_standard(Partition((7,)))) == 1
    assert len(enumerate_standard(Partition((6, 5)))) == 132


def test_basis_order_matches_generator_matrix_convention():
    listed = [str(t) for t in enumerate_standard(Partition((3, 2)))]
    assert listed == ["1,3,5/2,4", "1,2,5/3,4", "1,3,4/2,5", "1,2,4/3,5", "1,2,3/4,5"]


def test_enumerate_standard_lists_every_standard_filling_in_basis_order():
    def basis_key(t):  # row index of n, then of n-1, ...
        row_of = {v: r for r, row in enumerate(t.rows) for v in row}
        return tuple(row_of[v] for v in range(t.n, 0, -1))

    for n in range(1, 7):
        for parts in all_partitions(n):
            fillings = []
            for entries in itertools.permutations(range(1, n + 1)):
                rows = tuple(entries[sum(parts[:r]):sum(parts[:r + 1])] for r in range(len(parts)))
                if Tableau(rows).is_standard():
                    fillings.append(Tableau(rows))
            assert enumerate_standard(Partition(parts)) == tuple(sorted(fillings, key=basis_key))


def test_superstandard():
    assert superstandard(Partition((6, 3, 3, 1))) == Tableau.parse("1,5,8,11,12,13/2,6,9/3,7,10/4")
    assert superstandard(Partition((3, 2))) == Tableau.parse("1,3,5/2,4")
    assert superstandard(Partition((1, 1, 1))) == Tableau.parse("1/2/3")


def test_precedes():
    base = superstandard(Partition((3, 2)))
    assert precedes(1, 2, base)
    t = Tableau.parse("1,2,5/3,4")
    assert tuple(t.column_word()) == (1, 3, 2, 4, 5)
    assert not precedes(2, 3, t)
    assert precedes(3, 2, t)
    assert not precedes(2, 2, t)
    with pytest.raises(ValueError):
        precedes(9, 1, t)


def test_word_of_tableau():
    base = superstandard(Partition((3, 2)))
    assert word_of_tableau(base) == Permutation((1, 2, 3, 4, 5))
    w = word_of_tableau(Tableau.parse("1,2/3"))
    assert w.images == (1, 3, 2)
    # every filling, standard or not (Garnir candidates are not), of every
    # shape with n <= 5, against the definition w(superstandard) = t
    checked = 0
    for n in range(1, 6):
        for parts in all_partitions(n):
            base = superstandard(Partition(parts))
            for filling in itertools.permutations(range(1, n + 1)):
                cells = iter(filling)
                t = Tableau(tuple(tuple(next(cells) for _ in range(part)) for part in parts))
                images = [0] * n
                for r, row in enumerate(base.rows):
                    for c, v in enumerate(row):
                        images[v - 1] = t.rows[r][c]
                reference = Permutation(tuple(images))
                w = word_of_tableau(t)
                assert w == reference
                assert tableau_distance(t) == reference.inversions()
                # applying the word to the superstandard tableau recovers t
                assert Tableau(tuple(tuple(w(v) for v in row) for row in base.rows)) == t
                checked += 1
    assert checked == sum(len(list(all_partitions(n))) * factorial(n) for n in range(1, 6))


def test_reduced_word_examples():
    assert reduced_word(Permutation((1, 2, 3, 4))) == ()
    assert reduced_word(Permutation((1, 3, 2))) == (2,)
    longest = Permutation((3, 2, 1))
    word = reduced_word(longest)
    assert len(word) == 3 == longest.inversions()
    assert word == (1, 2, 1)


def compose_word(word, n):
    images = list(range(1, n + 1))
    for i in reversed(word):
        # left-multiply by s_i: swap the values i and i+1
        images = [i + 1 if v == i else i if v == i + 1 else v for v in images]
    return Permutation(tuple(images))


def test_reduced_word_random_lengths():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randrange(2, 9)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        w = Permutation(tuple(images))
        word = reduced_word(w)
        assert len(word) == w.inversions()
        assert compose_word(word, n) == w


def test_hook_count_values():
    assert hook_count(Partition((3, 2))) == 5
    assert hook_count(Partition((7, 4))) == 165
    assert hook_count(Partition((10, 1))) == 10


def test_hook_count_matches_enumeration():
    for n in range(1, 11):
        for parts in all_partitions(n):
            shape = Partition(parts)
            assert hook_count(shape) == len(enumerate_standard(shape))


@given(st.integers(min_value=1, max_value=10))
def test_single_row_strips(n):
    strips = boundary_strips(Partition((n,)))
    assert sorted(s.length for s in strips) == list(range(1, n + 1))
    assert all(s.second_row_boxes == 0 for s in strips)


def test_boundary_strip_examples():
    strips = boundary_strips(Partition((5, 4)))
    marked = [s for s in strips if s.length == 3 and s.start_row == 1]
    assert marked and marked[0].boxes == ((1, 5), (1, 4), (2, 4))
    assert marked[0].second_row_boxes == 1

    strips = boundary_strips(Partition((9, 3)))
    long = [s for s in strips if s.length == 10]
    assert long and long[0].second_row_boxes == 3


def test_boundary_strip_recursion_invariant():
    for parts in [(5, 4), (6, 3, 3, 1), (2, 2, 2), (4, 1)]:
        shape = Partition(parts)
        heights = shape.column_heights()
        for strip in boundary_strips(shape):
            assert isinstance(strip, BoundaryStrip)
            assert strip.boxes[0] == (strip.start_row, shape.parts[strip.start_row - 1])
            for (r1, c1), (r2, c2) in zip(strip.boxes, strip.boxes[1:]):
                if heights[c1 - 1] > r1:
                    assert (r2, c2) == (r1 + 1, c1)  # below exists: must go down
                else:
                    assert (r2, c2) == (r1, c1 - 1)
            end_r, end_c = strip.boxes[-1]
            assert heights[end_c - 1] == end_r  # ends at a column bottom
            assert strip.length == len(strip.boxes)
