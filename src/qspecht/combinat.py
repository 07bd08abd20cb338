"""Partitions, Young tableaux, permutations, reduced words, boundary strips.

Conventions used throughout the package:

* tableaux are stored row-major with 1-based entries; positions handed
  around internally are 0-based (row, column) pairs;
* the column reading word lists entries down the first column, then down
  each successive column; "i precedes j" refers to this word;
* the superstandard tableau of a shape is filled down successive columns
  left to right, so its column word is 1..n;
* the standard-tableau basis order compares the row index of n, then of
  n-1, and so on (smaller row first).  This is the order the generator
  matrices are written in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; trailing zeros are dropped."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)
        for i, part in enumerate(parts):
            if part <= 0:
                raise ValueError(f"partition parts must be positive: {parts}")
            if i and parts[i - 1] < part:
                raise ValueError(f"partition parts must weakly decrease: {parts}")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(piece) for piece in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        return cls(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def column_heights(self) -> tuple[int, ...]:
        if not self.parts:
            return ()
        return tuple(sum(1 for part in self.parts if part > j) for j in range(self.parts[0]))

    def __str__(self):
        return ",".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class Tableau:
    """A partition shape filled bijectively with 1..n, stored row-major."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = tuple(len(row) for row in rows)
        Partition(lengths)
        n = sum(lengths)
        seen = {entry for row in rows for entry in row}
        if seen != set(range(1, n + 1)):
            raise ValueError(f"tableau entries must be exactly 1..{n}: {rows}")

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """A tableau from rows already known to be a valid filling, such as a
        permutation of the entries of a validated tableau; skips validation."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @classmethod
    def parse(cls, text: str) -> "Tableau":
        try:
            rows = tuple(
                tuple(int(piece) for piece in row.split(","))
                for row in text.strip().split("/")
            )
        except ValueError:
            raise ValueError(f"cannot parse tableau {text!r}") from None
        return cls(rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.rows if len(row) > c)

    def column_word(self) -> tuple[int, ...]:
        rows = self.rows
        return tuple(row[c] for c in range(len(rows[0]) if rows else 0)
                     for row in rows if len(row) > c)

    def is_standard(self) -> bool:
        for row in self.rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                return False
        width = len(self.rows[0]) if self.rows else 0
        for c in range(width):
            col = self.column(c)
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                return False
        return True

    def __str__(self):
        return "/".join(",".join(str(v) for v in row) for row in self.rows)


def _column_starts(heights: tuple[int, ...]) -> list[int]:
    """The offset of each column in the column reading word, then the word's length."""
    starts = [0]
    for height in heights:
        starts.append(starts[-1] + height)
    return starts


def _tableau_of_word(word: tuple[int, ...], heights: tuple[int, ...]) -> Tableau:
    """The tableau of the given column heights whose column word is word;
    word must be a permutation of the column word of a valid tableau."""
    starts = _column_starts(heights)
    return Tableau._unchecked(tuple(
        tuple(word[starts[c] + r] for c in range(len(heights)) if heights[c] > r)
        for r in range(heights[0] if heights else 0)))


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n}; images[i-1] = w(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inversions(self) -> int:
        images = self.images
        return sum(
            1
            for i in range(len(images))
            for j in range(i + 1, len(images))
            if images[i] > images[j]
        )


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i1, ..., ik) with w = s_{i1} s_{i2} ... s_{ik}.

    Deterministic choice: peel the smallest left descent first, i.e. the
    smallest value v whose position lies after the position of v+1.  The
    word length equals the inversion count of w.
    """
    n = w.n
    pos = [0] * (n + 1)
    for i, v in enumerate(w.images):
        pos[v] = i
    word = []
    while True:
        for v in range(1, n):
            if pos[v] > pos[v + 1]:
                word.append(v)
                pos[v], pos[v + 1] = pos[v + 1], pos[v]
                break
        else:
            return tuple(word)


def superstandard(shape: Partition) -> Tableau:
    """The standard tableau filled down successive columns left to right:
    its column word is 1..n."""
    return _tableau_of_word(tuple(range(1, shape.n + 1)), shape.column_heights())


def precedes(i: int, j: int, t: Tableau) -> bool:
    """True iff i occurs before j in the column reading word of t."""
    word = t.column_word()
    return word.index(i) < word.index(j)


def word_of_tableau(t: Tableau) -> Permutation:
    """The permutation w with w(superstandard) = t, acting on entries.

    The superstandard tableau numbers its cells in column reading order, so
    w(v) is the v-th letter of t's column reading word.
    """
    return Permutation(t.column_word())


def tableau_distance(t: Tableau) -> int:
    """Inversion count of word_of_tableau(t)."""
    return word_of_tableau(t).inversions()


def enumerate_standard(shape: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the shape, in the fixed basis order.

    Entries are placed from n down, each in a removable corner of the cells
    still empty, trying the rows top to bottom: that visits the tableaux in
    order of the row of n, then of n-1, and so on, which is the basis order.
    """
    parts = list(shape.parts)
    grid = [[0] * part for part in parts]
    out = []

    def place(entry: int):
        if not entry:
            out.append(Tableau._unchecked(tuple(tuple(row) for row in grid)))
            return
        for r, part in enumerate(parts):
            if part and (r + 1 == len(parts) or parts[r + 1] < part):
                parts[r] -= 1
                grid[r][part - 1] = entry
                place(entry - 1)
                parts[r] += 1

    place(shape.n)
    return tuple(out)


def hook_count(shape: Partition) -> int:
    """n! divided by the product of hook lengths."""
    heights = shape.column_heights()
    product = 1
    for r, part in enumerate(shape.parts):
        for c in range(part):
            product *= (part - c - 1) + (heights[c] - r - 1) + 1
    return factorial(shape.n) // product


@dataclass(frozen=True)
class BoundaryStrip:
    """A below-else-left path from a row's rightmost box to a column bottom.

    Boxes are 1-based (row, column) pairs in path order.
    """

    start_row: int
    boxes: tuple[tuple[int, int], ...]
    length: int
    second_row_boxes: int


def boundary_strips(shape: Partition) -> tuple[BoundaryStrip, ...]:
    """Every boundary strip of the shape, one family per starting row."""
    parts = shape.parts
    heights = shape.column_heights()
    strips = []
    for start in range(1, len(parts) + 1):
        path = []
        r, c = start, parts[start - 1]  # 1-based
        while True:
            path.append((r, c))
            if heights[c - 1] > r:
                r += 1
            elif c > 1:
                c -= 1
            else:
                break
        for length in range(1, len(path) + 1):
            end_r, end_c = path[length - 1]
            if heights[end_c - 1] == end_r:  # bottom of its column
                boxes = tuple(path[:length])
                strips.append(
                    BoundaryStrip(
                        start_row=start,
                        boxes=boxes,
                        length=length,
                        second_row_boxes=sum(1 for (br, _) in boxes if br == 2),
                    )
                )
    return tuple(strips)
