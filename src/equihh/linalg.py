"""Sparse exact linear algebra and graded chain-complex slices.

Everything here is deterministic: elimination processes columns in
ascending index and pivots on the lowest nonzero row, so bases and
reports are reproducible run to run.  Vectors are dicts ``{row: scalar}``
with no explicit zeros; matrices store columns the same way.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WindowError
from .scalars import invert_scalar


def vec_add(u, v):
    out = dict(u)
    for k, x in v.items():
        y = out.get(k)
        s = x if y is None else y + x
        if s:
            out[k] = s
        elif y is not None:
            del out[k]
    return out


def vec_scale(c, v):
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def vec_sub(u, v):
    return vec_add(u, vec_scale(-1, v))


def vec_is_zero(v):
    return not any(v.values())


def vec_eq(u, v):
    return vec_is_zero(vec_sub(u, v))


class SparseMatrix:
    """Column-major sparse matrix over one scalar field."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    @classmethod
    def from_rows(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x:
                    m.cols[j][i] = Fraction(x) if isinstance(x, int) else x
        return m

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        m = cls(n, n)
        for i in range(n):
            m.cols[i][i] = one
        return m

    def set(self, i, j, x):
        if x:
            self.cols[j][i] = x
        else:
            self.cols[j].pop(i, None)

    def get(self, i, j):
        return self.cols[j].get(i, Fraction(0))

    def entries(self):
        for j, col in enumerate(self.cols):
            for i, x in col.items():
                yield i, j, x

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def is_zero(self):
        return all(not c for c in self.cols)

    def apply(self, vec):
        """Matrix times column vector (vector as {index: scalar})."""
        out = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, y in self.cols[j].items():
                s = out.get(i)
                s = x * y if s is None else s + x * y
                if s:
                    out[i] = s
                elif i in out:
                    del out[i]
        return out

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch")
        out = SparseMatrix(self.nrows, other.ncols)
        for j in range(other.ncols):
            col = self.apply(other.cols[j])
            if col:
                out.cols[j] = col
        return out

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = SparseMatrix(self.nrows, self.ncols)
        out.cols = [vec_add(a, b) for a, b in zip(self.cols, other.cols)]
        return out

    def scale(self, c):
        out = SparseMatrix(self.nrows, self.ncols)
        out.cols = [vec_scale(c, col) for col in self.cols]
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(vec_eq(a, b) for a, b in zip(self.cols, other.cols))

    def transpose(self):
        out = SparseMatrix(self.ncols, self.nrows)
        for i, j, x in self.entries():
            out.cols[i][j] = x
        return out

    def to_rows(self):
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for i, j, x in self.entries():
            rows[i][j] = x
        return rows

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class Echelon:
    """Reduced column echelon accumulator with combination tracking.

    Each stored column has a distinct pivot row; pivots are normalized to 1
    and eliminated from every other stored column, so membership tests are
    a single pass.  ``tags`` remembers which generator produced a column,
    letting callers read off coordinates over the original generators.
    """

    def __init__(self):
        self.columns = []  # reduced column vectors
        self.pivots = {}  # pivot row -> column position
        self.tags = []  # tag per stored column
        self.combos = []  # generator combination per stored column

    @property
    def rank(self):
        return len(self.columns)

    def _reduce(self, vec, combo):
        vec = dict(vec)
        combo = dict(combo)
        # one sweep is enough: stored columns are mutually reduced
        for row in sorted(set(vec) & set(self.pivots)):
            c = vec.get(row)
            if not c:
                continue
            pos = self.pivots[row]
            vec = vec_sub(vec, vec_scale(c, self.columns[pos]))
            combo = vec_sub(combo, vec_scale(c, self.combos[pos]))
        return vec, combo

    def add(self, vec, tag=None, combo=None):
        """Insert a generator.  Returns (residual, combo); residual {} means
        the vector was already in the span."""
        if combo is None:
            combo = {tag: Fraction(1)} if tag is not None else {}
        vec, combo = self._reduce(vec, combo)
        if vec_is_zero(vec):
            return {}, combo
        pivot = min(vec)  # lowest row index rule
        inv = invert_scalar(vec[pivot])
        vec = vec_scale(inv, vec)
        combo = vec_scale(inv, combo)
        # eliminate the new pivot row from existing columns
        for pos, col in enumerate(self.columns):
            c = col.get(pivot)
            if c:
                self.columns[pos] = vec_sub(col, vec_scale(c, vec))
                self.combos[pos] = vec_sub(self.combos[pos], vec_scale(c, combo))
        self.pivots[pivot] = len(self.columns)
        self.columns.append(vec)
        self.combos.append(combo)
        self.tags.append(tag)
        return vec, combo

    def express(self, vec):
        """Coordinates of vec over the stored columns, or None if outside
        the span.  Returned as {column position: scalar}."""
        vec = dict(vec)
        coords = {}
        for row in sorted(set(vec) & set(self.pivots)):
            c = vec.get(row)
            if not c:
                continue
            pos = self.pivots[row]
            vec = vec_sub(vec, vec_scale(c, self.columns[pos]))
            coords[pos] = c
        if not vec_is_zero(vec):
            return None
        return coords


def rank_kernel_image(matrix: SparseMatrix):
    """Exact (rank, kernel basis, image basis) by deterministic elimination.

    Kernel vectors are combinations over the original column indices with
    the eliminated column carrying coefficient 1; rank + len(kernel) equals
    the column count.
    """
    ech = Echelon()
    kernel = []
    for j in range(matrix.ncols):
        residual, combo = ech.add(matrix.cols[j], tag=j)
        if not residual:
            kernel.append(combo)
    image = list(ech.columns)
    assert ech.rank + len(kernel) == matrix.ncols
    return ech.rank, kernel, image


def matrix_inverse(m: SparseMatrix):
    """Exact inverse of a square matrix, or None when singular."""
    if m.nrows != m.ncols:
        return None
    ech = Echelon()
    for j in range(m.ncols):
        residual, _ = ech.add(m.cols[j], tag=j)
        if not residual:
            return None
    inv = SparseMatrix(m.ncols, m.nrows)
    for i in range(m.nrows):
        coords = ech.express({i: Fraction(1)})
        if coords is None:
            return None
        col = {}
        for pos, c in coords.items():
            for tag, w in ech.combos[pos].items():
                s = col.get(tag, Fraction(0)) + c * w
                if s:
                    col[tag] = s
                elif tag in col:
                    del col[tag]
        inv.cols[i] = col
    return inv


class GradedSpace:
    """Finitely supported map degree -> list of basis labels."""

    def __init__(self, basis=None):
        self.basis = {}
        if basis:
            for deg, labels in basis.items():
                labels = list(labels)
                if labels:
                    if len(set(labels)) != len(labels):
                        raise ValueError(f"duplicate labels in degree {deg}")
                    self.basis[int(deg)] = labels
        self._index = {
            deg: {lab: i for i, lab in enumerate(labels)}
            for deg, labels in self.basis.items()
        }

    def degrees(self):
        return sorted(self.basis)

    def dim(self, deg):
        return len(self.basis.get(deg, ()))

    def labels(self, deg):
        return self.basis.get(deg, [])

    def index(self, deg, label):
        return self._index[deg][label]

    def total_dim(self):
        return sum(len(v) for v in self.basis.values())

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.basis == other.basis

    def __repr__(self):
        return f"GradedSpace({{{', '.join(f'{d}: {len(l)}' for d, l in sorted(self.basis.items()))}}})"


class GradedMap:
    """Degree-homogeneous linear map between graded spaces.

    ``matrices[k]`` sends the degree-k part of the source to the degree
    ``k + shift`` part of the target (rows = target basis, cols = source).
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int, matrices=None):
        self.source = source
        self.target = target
        self.shift = shift
        self.matrices = {}
        for deg in source.degrees():
            m = None if matrices is None else matrices.get(deg)
            if m is None:
                m = SparseMatrix(target.dim(deg + shift), source.dim(deg))
            if m.ncols != source.dim(deg) or m.nrows != target.dim(deg + shift):
                raise ValueError(f"matrix shape mismatch in degree {deg}")
            self.matrices[deg] = m

    def matrix(self, deg) -> SparseMatrix:
        return self.matrices.get(
            deg, SparseMatrix(self.target.dim(deg + self.shift), self.source.dim(deg))
        )

    def apply(self, deg, vec):
        return self.matrix(deg).apply(vec)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("graded map composition mismatch")
        mats = {
            deg: self.matrix(deg + other.shift) * other.matrix(deg)
            for deg in other.source.degrees()
        }
        return GradedMap(other.source, self.target, self.shift + other.shift, mats)

    def is_zero(self):
        return all(m.is_zero() for m in self.matrices.values())


class ComplexSlice:
    """A degree window of a cohomological complex with a degree +1 map."""

    def __init__(self, space: GradedSpace, d: GradedMap, lo: int, hi: int, check=True):
        if d.shift != 1:
            raise ValueError("differential must have degree +1")
        self.space = space
        self.d = d
        self.lo = lo
        self.hi = hi
        if check:
            bad = self.d_squared_violations()
            if bad:
                deg, col = bad[0]
                raise ValueError(f"d^2 != 0 at degree {deg}, basis column {col}")

    def d_squared_violations(self):
        out = []
        for k in range(self.lo, self.hi - 1):
            prod = self.d.matrix(k + 1) * self.d.matrix(k)
            for j, col in enumerate(prod.cols):
                if not vec_is_zero(col):
                    out.append((k, j))
        return out

    def homology_at(self, k: int):
        """(dimension, cycle representatives) in degree k.

        Representatives extend an echelon of the boundaries, so their
        classes are independent by construction.
        """
        if not (self.lo <= k - 1 and k + 1 <= self.hi):
            raise WindowError(f"homology at {k} needs degrees {k-1}..{k+1} in window")
        _, cycles, _ = rank_kernel_image(self.d.matrix(k))
        ech = Echelon()
        for j in range(self.space.dim(k - 1)):
            ech.add(self.d.matrix(k - 1).cols[j])
        boundary_rank = ech.rank
        reps = []
        for cyc in cycles:
            residual, _ = ech.add(cyc)
            if residual:
                reps.append(cyc)
        assert len(reps) == len(cycles) - boundary_rank
        return len(reps), reps


def homology_at(complex_slice: ComplexSlice, k: int):
    """Module-level alias for ComplexSlice.homology_at."""
    return complex_slice.homology_at(k)
