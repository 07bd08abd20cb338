"""Exact linear algebra over the scalar domains.

`Matrix` stores only its nonzero entries, and its products work over both
domains.  Elimination runs only on sparse vectors, dicts {index: scalar}
with no stored zeros, through one incremental sparse RREF routine.  It has
two entry points: `joint_kernel`, the echelon-normalized basis of the
vectors that linear maps send to zero (a matrix enters as its `apply`), and
`closure_dimension`, the dimension of the smallest subspace that holds
given vectors and is mapped into itself (with no maps, their rank).  Both
need a field (a root-of-unity domain; specialize generic matrices first).
Every sparse sum, in products and in the echelon, goes through
`scalar.fold`.
"""

from __future__ import annotations

from .scalar import ScalarDomain, fold, specialize, root_of_unity


class Matrix:
    """An exact matrix that stores only its nonzero entries, one dict per
    column from row index to entry.

    `Matrix(domain, rows)` takes a dense grid and validates every entry;
    `from_columns` takes the per-column dicts.  `entries` is a dense view,
    built on each access and not kept.
    """

    __slots__ = ("domain", "_rows", "_columns")

    def __init__(self, domain: ScalarDomain, entries):
        grid = [tuple(row) for row in entries]
        widths = {len(row) for row in grid}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")
        domain.check_entries(grid)
        columns = [{} for _ in range(widths.pop() if widths else 0)]
        for r, row in enumerate(grid):
            for column, x in zip(columns, row):
                if x:
                    column[r] = x
        self.domain, self._rows, self._columns = domain, len(grid), columns

    @classmethod
    def from_columns(cls, domain: ScalarDomain, rows: int, columns) -> "Matrix":
        """A rows x len(columns) matrix from per-column dicts {row: entry};
        zero entries are dropped."""
        columns = list(columns)
        domain.check_entries([column.values() for column in columns])
        columns = [{r: x for r, x in column.items() if x} for column in columns]
        if any(not 0 <= r < rows for column in columns for r in column):
            raise ValueError(f"row index out of range 0..{rows - 1}")
        m = object.__new__(cls)
        m.domain, m._rows, m._columns = domain, rows, columns
        return m

    @classmethod
    def identity(cls, domain: ScalarDomain, n: int) -> "Matrix":
        one = domain.one()
        return cls.from_columns(domain, n, [{j: one} for j in range(n)])

    @classmethod
    def zero(cls, domain: ScalarDomain, rows: int, cols: int) -> "Matrix":
        return cls.from_columns(domain, rows, [{} for _ in range(cols)])

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return len(self._columns)

    @property
    def entries(self) -> tuple[tuple, ...]:
        zero = self.domain.zero()
        grid = [[zero] * self.cols for _ in range(self._rows)]
        for c, column in enumerate(self._columns):
            for r, x in column.items():
                grid[r][c] = x
        return tuple(tuple(row) for row in grid)

    def __getitem__(self, key):
        r, c = key
        rows, cols = self._rows, self.cols
        if not (-rows <= r < rows and -cols <= c < cols):
            raise IndexError(f"index {key} out of range for a {rows}x{cols} matrix")
        return self._columns[c].get(r % rows, self.domain.zero())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.domain == other.domain and self._rows == other._rows
                and self._columns == other._columns)

    def __hash__(self):
        return hash((self.domain, self._rows,
                     tuple(frozenset(column.items()) for column in self._columns)))

    def _check_domain(self, other: "Matrix"):
        if self.domain != other.domain:
            raise ValueError(f"mixed domains {self.domain} and {other.domain}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        one, columns = self.domain.one(), [dict(a) for a in self._columns]
        for column, b in zip(columns, other._columns):
            fold(column, b.items(), one)
        return Matrix.from_columns(self.domain, self._rows, columns)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.domain.from_int(-1))

    def scale(self, scalar) -> "Matrix":
        return Matrix.from_columns(self.domain, self._rows, [
            {r: scalar * x for r, x in column.items()} for column in self._columns])

    def apply(self, v: dict) -> dict:
        """self times the sparse column v ({index: entry}), as {row: entry}."""
        acc: dict = {}
        for k, b in v.items():
            if not 0 <= k < self.cols:
                raise ValueError(f"cannot apply a {self.rows}x{self.cols} matrix to index {k}")
            fold(acc, self._columns[k].items(), b)
        return acc

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._check_domain(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix.from_columns(self.domain, self._rows,
                                   [self.apply(column) for column in other._columns])

    def string_grid(self) -> list[list[str]]:
        """The entries as strings, row by row; zero is rendered once."""
        zero = str(self.domain.zero())
        grid = [[zero] * self.cols for _ in range(self._rows)]
        for c, column in enumerate(self._columns):
            for r, x in column.items():
                grid[r][c] = str(x)
        return grid

    def __str__(self):
        return "\n".join("[" + ", ".join(row) + "]" for row in self.string_grid())

    def __repr__(self):
        return (f"Matrix({self.domain}, {self.rows}x{self.cols}, "
                f"{sum(map(len, self._columns))} nonzeros)")


def specialize_matrix(m: Matrix, p: int) -> Matrix:
    """Entrywise specialization of a generic matrix at a p-th root of unity."""
    if not m.domain.is_generic:
        raise ValueError("specialize_matrix expects a generic-domain matrix")
    return Matrix.from_columns(root_of_unity(p), m.rows, [
        {r: specialize(x, p) for r, x in column.items()} for column in m._columns])


def _require_field(domain: ScalarDomain):
    if domain.is_generic:
        raise ValueError("kernels and closures need a field domain; "
                         "specialize at a root of unity first")


class _Echelon:
    """Reduced row echelon form of the span of the sparse vectors added so far.

    Rows are dicts keyed by pivot column, their smallest key; each has 1 at
    its pivot and no entry at any other row's pivot, so the rows sorted by
    pivot are the unique RREF of the span, whatever order the vectors came in.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    def add(self, v: dict) -> bool:
        """Reduce the vector into the echelon; True if it was independent."""
        v = {c: x for c, x in v.items() if x}
        # a reduction adds no entry at another row's pivot: clear only the pivots v holds
        for pivot in [c for c in v if c in self.rows]:
            fold(v, self.rows[pivot].items(), -v[pivot])
        if not v:
            return False
        lead = min(v)
        inv = v[lead].inverse()
        v = {c: inv * x for c, x in v.items()}
        for row in self.rows.values():
            if lead in row:
                fold(row, v.items(), -row[lead])
        self.rows[lead] = v
        return True


def joint_kernel(domain: ScalarDomain, dim: int, maps) -> tuple[dict, ...]:
    """Echelon-normalized basis of the vectors that every map sends to zero.

    Maps are linear, from sparse vectors over 0..dim-1 to sparse vectors,
    and each is applied to the current basis only.  The pair (A v, v
    reversed) puts image key k in column -1-k and coordinate k in column
    dim-1-k; the RREF rows with a pivot >= 0 are killed by A, and read
    right to left they are the echelon-normalized kernel (a 1 in one free
    coordinate, 0 in the others), so the order of the maps does not matter.
    """
    _require_field(domain)
    one = domain.one()
    span = [{j: one} for j in range(dim)]
    for apply in maps:
        echelon = _Echelon()
        for v in span:
            pair = {-1 - k: x for k, x in apply(v).items()}
            pair.update((dim - 1 - k, x) for k, x in v.items())
            echelon.add(pair)
        span = [{dim - 1 - c: x for c, x in row.items()}
                for pivot, row in sorted(echelon.rows.items(), reverse=True) if pivot >= 0]
    return tuple(span)


def closure_dimension(domain: ScalarDomain, vectors, maps) -> int:
    """Dimension of the smallest subspace that contains the sparse vectors
    and is mapped into itself by every map; with no maps, the rank of the
    vectors."""
    _require_field(domain)
    echelon = _Echelon()
    queue = [v for v in vectors if echelon.add(v)]
    while queue:
        v = queue.pop()
        for apply in maps:
            image = apply(v)
            if echelon.add(image):
                queue.append(image)
    return len(echelon.rows)
