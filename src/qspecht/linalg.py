"""Exact linear algebra over the scalar domains.

`Matrix` products work over both domains.  Kernels, ranks and subspace
closures need a field (a root-of-unity domain; specialize generic matrices
first).  Kernels and closures act through linear maps on coordinate tuples,
so nothing that is only applied to vectors becomes a matrix.  All of them
share one incremental RREF routine; kernel bases are echelon-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import ScalarDomain, specialize, root_of_unity


@dataclass(frozen=True)
class Matrix:
    domain: ScalarDomain
    entries: tuple[tuple, ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        widths = {len(row) for row in entries}
        if len(widths) > 1:
            raise ValueError("ragged matrix rows")
        self.domain.check_entries(entries)

    @classmethod
    def identity(cls, domain: ScalarDomain, n: int) -> "Matrix":
        one, zero = domain.one(), domain.zero()
        return cls(domain, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)
        ))

    @classmethod
    def zero(cls, domain: ScalarDomain, rows: int, cols: int) -> "Matrix":
        z = domain.zero()
        return cls(domain, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def column(cls, domain: ScalarDomain, coords) -> "Matrix":
        return cls(domain, tuple((x,) for x in coords))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, key):
        r, c = key
        return self.entries[r][c]

    def column_coords(self, c: int = 0) -> tuple:
        return tuple(row[c] for row in self.entries)

    def _check_domain(self, other: "Matrix"):
        if self.domain != other.domain:
            raise ValueError(f"mixed domains {self.domain} and {other.domain}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return Matrix(self.domain, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        ))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(self.domain.from_int(-1))

    def scale(self, scalar) -> "Matrix":
        return Matrix(self.domain, tuple(
            tuple(scalar * x for x in row) for row in self.entries
        ))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._check_domain(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = self.domain.zero()
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix(self.domain, tuple(out))

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.entries
        )


def specialize_matrix(m: Matrix, p: int) -> Matrix:
    """Entrywise specialization of a generic matrix at a p-th root of unity."""
    if not m.domain.is_generic:
        raise ValueError("specialize_matrix expects a generic-domain matrix")
    return Matrix(root_of_unity(p), tuple(
        tuple(specialize(x, p) for x in row) for row in m.entries
    ))


def _require_field(domain: ScalarDomain):
    if domain.is_generic:
        raise ValueError("kernels, ranks and closures need a field domain; "
                         "specialize at a root of unity first")


class _Echelon:
    """Reduced row echelon form of the span of the vectors added so far.

    Rows are keyed by pivot column; each has 1 at its pivot and 0 at every
    other row's pivot, so the rows sorted by pivot are the unique RREF of
    the span, whatever order the vectors came in.
    """

    def __init__(self):
        self.rows: dict[int, list] = {}

    def add(self, coords) -> bool:
        """Reduce the vector into the echelon; True if it was independent."""
        coords = list(coords)
        for pivot, row in self.rows.items():
            factor = coords[pivot]
            if factor:
                coords = [a - factor * b if b else a for a, b in zip(coords, row)]
        lead = next((c for c, x in enumerate(coords) if x), None)
        if lead is None:
            return False
        inv = coords[lead].inverse()
        coords = [inv * x if x else x for x in coords]
        for pivot, row in self.rows.items():
            factor = row[lead]
            if factor:
                self.rows[pivot] = [a - factor * b if b else a for a, b in zip(row, coords)]
        self.rows[lead] = coords
        return True


def rank(m: Matrix) -> int:
    """Exact rank over a field domain."""
    _require_field(m.domain)
    echelon = _Echelon()
    return sum(echelon.add(row) for row in m.entries)


def joint_kernel(domain: ScalarDomain, dim: int, maps) -> tuple[tuple, ...]:
    """Echelon-normalized basis of the vectors that every map sends to zero.

    Maps are linear callables on coordinate tuples of length dim.  Each is
    applied to the current basis only: in the RREF of the pairs (A v,
    v reversed), the rows with no pivot in the image part are killed by A,
    and read right to left they are the next basis.  That RREF with its
    columns reversed is the echelon-normalized kernel (a 1 in one free
    coordinate, 0 in the others), so the order of the maps does not matter.
    """
    _require_field(domain)
    one, zero = domain.one(), domain.zero()
    span = [tuple(one if i == j else zero for i in range(dim)) for j in range(dim)]
    for apply in maps:
        echelon, width = _Echelon(), 0
        for v in span:
            image = tuple(apply(v))
            width = len(image)
            echelon.add(image + v[::-1])
        span = [tuple(reversed(row[width:]))
                for pivot, row in sorted(echelon.rows.items(), reverse=True) if pivot >= width]
    return tuple(span)


def kernel(m: Matrix) -> tuple[Matrix, ...]:
    """Echelon-normalized basis of the right null space, as column vectors."""
    return tuple(Matrix.column(m.domain, v) for v in joint_kernel(
        m.domain, m.cols, [lambda v: (m * Matrix.column(m.domain, v)).column_coords()]))


def closure_dimension(domain: ScalarDomain, vectors, maps) -> int:
    """Dimension of the smallest subspace that contains the coordinate
    vectors and is mapped into itself by every map."""
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
