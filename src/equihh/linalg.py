"""Sparse exact linear algebra and graded spaces.

Everything here is deterministic: ``Echelon`` processes columns in
ascending index and pivots on the lowest nonzero row, so bases and
reports are reproducible run to run.  Vectors are dicts ``{row: scalar}``
with no explicit zeros; matrices store columns the same way.

``vec_axpy(u, c, v)`` (``u += c·v``) is the one kernel for adding a scaled
vector.  It changes ``u`` in place and returns it, leaves ``v`` alone,
drops entries that cancel and appends new keys in ``v``'s order, so keys
come out in the order of ``vec_add(u, vec_scale(c, v))``.  Units are not
multiplied: for ``c == 1`` it adds the entries of ``v`` as they are, for
``c == -1`` it subtracts them, and for ``c == 0`` it returns ``u``
unchanged; only other scalars are multiplied.  Most scalars in
elimination and chain-map evaluation are ±1.

Rational scalars are canonical (``scalars.rational``): an int when
integral, a Fraction otherwise.  The matrices built here and every value
``Echelon`` returns are canonical, and the structure tables are too, so
window differentials and the equivariant solve add plain ints wherever
the tables are integral.

``Echelon`` eliminates without fractions.  It clears the denominators of
each vector it is given and stores every column as an integer multiple of
the reduced column, with that multiple as its pivot entry; cyclotomic
entries keep integer coefficients.  Callers see canonical field scalars
only: each entry ``add`` or ``solve`` returns is divided back once, and
``add`` returns a combination only for a vector already in the span.
``solve`` never changes an echelon, so one built echelon can answer any
number of solves, in any order, with the same results.  A
nonzero scaling cancels the same entries as the rational elimination, so
the returned values and their key order are those of the rational
elimination.

``rank_mod_p`` eliminates plain ints mod the prime P = 2^31 - 1 and
proves only a lower bound for the rank over Q.  It reads an entry n/d as
n·d^-1 mod P, the entry of the matrix whose columns are cleared of
denominators, times a unit mod P; a minor of that integer matrix that is
nonzero mod P is nonzero over Q, so the rank mod P never exceeds the rank
over Q.  Cyclotomic entries and denominators divisible by P have no such
image, and it returns None for them.  It pivots on a row that no stored
column holds wherever it can, so no stored column needs clearing; a rank
does not depend on the pivots, so neither does the count it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import QQ, Cyc, invert_scalar, rational


def vec_axpy(u, c, v):
    """u += c·v in place; returns u."""
    if not c:
        return u
    get = u.get
    if c == 1:
        for k, x in v.items():
            y = get(k)
            if y is None:
                if x:
                    u[k] = x
            else:
                s = y + x
                if s:
                    u[k] = s
                else:
                    del u[k]
    elif c == -1:
        for k, x in v.items():
            y = get(k)
            if y is None:
                if x:
                    u[k] = -x
            else:
                s = y - x
                if s:
                    u[k] = s
                else:
                    del u[k]
    else:
        for k, x in v.items():
            y = get(k)
            s = c * x if y is None else y + c * x
            if s:
                u[k] = s
            elif y is not None:
                del u[k]
    return u


def vec_add(u, v):
    return vec_axpy(dict(u), 1, v)


def vec_scale(c, v):
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def vec_sub(u, v):
    return vec_axpy(dict(u), -1, v)


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
                    m.cols[j][i] = x if isinstance(x, Cyc) else rational(x)
        return m

    @classmethod
    def identity(cls, n, one=1):
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
        return self.cols[j].get(i, 0)

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
            vec_axpy(out, x, self.cols[j])
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

    def _columnwise(self, op, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = SparseMatrix(self.nrows, self.ncols)
        out.cols = [op(a, b) for a, b in zip(self.cols, other.cols)]
        return out

    def __add__(self, other):
        return self._columnwise(vec_add, other)

    def scale(self, c):
        out = SparseMatrix(self.nrows, self.ncols)
        out.cols = [vec_scale(c, col) for col in self.cols]
        return out

    def __sub__(self, other):
        return self._columnwise(vec_sub, other)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(vec_eq(a, b) for a, b in zip(self.cols, other.cols))

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, x in self.entries():
            rows[i][j] = x
        return rows

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class Echelon:
    """Reduced column echelon accumulator with combination tracking,
    eliminating fraction-free.

    Each generator enters times the lcm of its denominators, so every
    stored column is an integer multiple of the reduced column it stands
    for: its pivot entry, on the lowest row, is that multiple, and
    ``combos`` holds the same multiple of its combination of the tagged
    generators.  Stored columns are mutually reduced, so membership is a
    single pass.  Eliminating ``w − (c/a)·s`` becomes ``a·w − c·s`` with a
    and c divided by their gcd, and a changed column is divided by the
    content of its entries and its combination (Bareiss, Math. Comp. 22,
    1968).  A nonzero scaling cancels the same entries, so the columns and
    their key order are those of the rational elimination up to one factor
    each.  Cyclotomic entries are stored with integer coefficients.

    Callers see canonical field scalars only: ``add`` (for a vector
    already in the span) and ``solve`` divide each entry they return once,
    into ``field``; over Q an integral quotient is an int.  ``add`` makes
    the field the cyclotomic field of the first cyclotomic entry met, if
    it was Q; ``solve`` divides a cyclotomic vector's solution into that
    vector's field and leaves the echelon's as it was.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.columns = []  # integer multiples of the reduced columns
        self.pivots = {}  # pivot row -> column position
        self.combos = []  # {tag: integer} per stored column, same multiple

    @property
    def rank(self):
        return len(self.columns)

    def _integral(self, vec):
        """(den·vec, den, field) with den the lcm of vec's denominators and
        field the echelon's, or the cyclotomic field of vec's entries where
        the echelon's is Q."""
        try:
            den = lcm(*[x.denominator for x in vec.values()])
        except AttributeError:  # a Cyc entry has no denominator
            return self._integral_cyc(vec)
        if den == 1:
            return {k: x.numerator for k, x in vec.items()}, 1, self.field
        return {k: x.numerator * (den // x.denominator) for k, x in vec.items()}, den, self.field

    def _integral_cyc(self, vec):
        """_integral of a vector with cyclotomic entries."""
        field = self.field
        den = 1
        for x in vec.values():
            if isinstance(x, Cyc):
                if field == QQ:
                    field = x.field
                den = lcm(den, *[c.denominator for c in x.coeffs])
            else:
                den = lcm(den, x.denominator)
        out = {}
        for k, x in vec.items():
            if isinstance(x, Cyc):
                out[k] = Cyc(x.field, tuple(c * den for c in x.coeffs))
            else:
                out[k] = x.numerator * (den // x.denominator)
        return out, den, field

    def _reduce(self, vec, combo, scale):
        """Reduce the integral vec and its combo, both ``scale`` times
        their rational values, by the stored columns in place; returns the
        new scale."""
        # one sweep is enough: stored columns are mutually reduced
        for row in sorted(vec.keys() & self.pivots.keys()):
            c = vec.get(row)
            if not c:
                continue
            pos = self.pivots[row]
            col = self.columns[pos]
            a, c = _coprime(col[row], c)
            if a != 1:
                _scale_in_place(a, vec)
                _scale_in_place(a, combo)
                scale = scale * a
            vec_axpy(vec, -c, col)
            vec_axpy(combo, -c, self.combos[pos])
        return scale

    def add(self, vec, tag=None):
        """Insert a generator.  Returns None when it adds a pivot, and its
        combination over the tagged generators (the generator itself with
        coefficient 1) when it was already in the span."""
        vec, den, self.field = self._integral(vec)
        combo = {tag: den} if tag is not None else {}
        scale = self._reduce(vec, combo, den)
        if vec_is_zero(vec):
            return self._divide(combo, scale, self.field)
        pivot = min(vec)  # lowest row index rule
        self._remove_content(vec, combo)
        lead = vec[pivot]
        # eliminate the new pivot row from the stored columns
        for pos, col in enumerate(self.columns):
            c = col.get(pivot)
            if c:
                a, c = _coprime(lead, c)
                other = self.combos[pos]
                if a != 1:
                    _scale_in_place(a, col)
                    _scale_in_place(a, other)
                vec_axpy(col, -c, vec)
                vec_axpy(other, -c, combo)
                self._remove_content(col, other)
        self.pivots[pivot] = len(self.columns)
        self.columns.append(vec)
        self.combos.append(combo)
        return None

    def solve(self, vec):
        """vec as {tag: scalar} over the tagged generators, or None if
        outside the span.  Untagged generators contribute nothing, and
        the echelon, its field included, is left unchanged."""
        vec, den, field = self._integral(vec)
        combo = {}  # minus the solution, times scale
        scale = self._reduce(vec, combo, den)
        if not vec_is_zero(vec):
            return None
        return self._divide(combo, -scale, field)

    def _remove_content(self, vec, combo):
        """Divide a column and its combination by their joint content."""
        if self.field == QQ:
            g = gcd(*vec.values(), *combo.values())
        else:
            g = 0
            for x in [*vec.values(), *combo.values()]:
                g = gcd(g, *[c.numerator for c in x.coeffs]) if isinstance(x, Cyc) else gcd(g, x)
        if g > 1:
            for v in (vec, combo):
                for k, x in v.items():
                    v[k] = Cyc(x.field, tuple(c / g for c in x.coeffs)) if isinstance(x, Cyc) else x // g

    @staticmethod
    def _divide(vec, d, field):
        """vec / d entrywise, one division per entry, as canonical scalars
        of ``field``; over Q with d == 1 that is vec itself."""
        if field == QQ:
            if d == 1:
                return vec
            return {k: rational(Fraction(x, d)) for k, x in vec.items()}
        inv = invert_scalar(d)
        return {k: field.canonical(x * inv) for k, x in vec.items()}


def _coprime(a, c):
    """(a, c) over their gcd with a > 0 when both are ints, for the update
    a·w − c·s; cyclotomic pairs are left as they are."""
    if type(a) is int and type(c) is int:
        g = gcd(a, c)
        if a < 0:
            g = -g
        return a // g, c // g
    return a, c


def _scale_in_place(a, vec):
    for k, x in vec.items():
        vec[k] = a * x


def rank_kernel_image(matrix: SparseMatrix, field=QQ):
    """Exact (rank, kernel basis) by deterministic elimination.

    Kernel vectors are combinations over the original column indices with
    the eliminated column carrying coefficient 1; rank + len(kernel) equals
    the column count.  Their entries lie in ``field`` (see ``Echelon``).
    """
    ech = Echelon(field)
    kernel = []
    for j in range(matrix.ncols):
        combo = ech.add(matrix.cols[j], tag=j)
        if combo is not None:
            kernel.append(combo)
    assert ech.rank + len(kernel) == matrix.ncols
    return ech.rank, kernel


P = 2**31 - 1  # the prime of rank_mod_p


def _mod_p(x):
    """x as an int mod P, or None for a Cyc or a denominator divisible by P."""
    if isinstance(x, int):
        return x % P
    if not isinstance(x, Fraction):
        return None
    den = x.denominator
    if den % P == 0:
        return None
    return x.numerator * pow(den, -1, P) % P


def _sub_mod_p(u, c, v):
    """u -= c·v mod P in place, dropping zeros."""
    for i, x in v.items():
        y = (u.get(i, 0) - c * x) % P
        if y:
            u[i] = y
        else:
            u.pop(i, None)


def rank_mod_p(matrix: SparseMatrix, stop=None):
    """Rank of ``matrix`` mod P, a lower bound for its rank over Q; None
    when an entry it reads has no image mod P (a Cyc, or a denominator
    divisible by P).

    Gauss-Jordan on plain ints: columns in order, empty ones skipped,
    stored columns mutually reduced with pivot entry 1.  A reduced column
    pivots on its highest row that no stored column has held, so no stored
    column needs clearing; a column with no such row pivots on its highest
    row and is cleared from the stored columns.  A rank does not depend on
    the pivots, so neither does the count.
    Elimination ends once the rank reaches ``stop``, leaving the remaining
    columns unread, so the result is then ``stop``.
    """
    columns = []  # reduced columns {row: int}, pivot entry 1
    pivots = {}  # pivot row -> column position
    touched = set()  # every row a stored column has held
    for col in matrix.cols:
        if stop is not None and len(columns) >= stop:
            break
        if not col:
            continue
        vec = {}
        for i, x in col.items():
            y = x % P if type(x) is int else _mod_p(x)
            if y is None:
                return None
            if y:
                vec[i] = y
        # stored columns vanish at each other's pivots, so no subtraction
        # changes vec at another pivot row and their order does not matter
        for row in vec.keys() & pivots.keys():
            c = vec.get(row)
            if c:
                _sub_mod_p(vec, c, columns[pivots[row]])
        if not vec:
            continue
        fresh = vec.keys() - touched
        pivot = max(fresh or vec)
        inv = pow(vec[pivot], -1, P)
        vec = {i: x * inv % P for i, x in vec.items()}
        if not fresh:
            for other in columns:
                c = other.get(pivot)
                if c:
                    _sub_mod_p(other, c, vec)
        touched.update(vec)
        pivots[pivot] = len(columns)
        columns.append(vec)
    return len(columns)


def matrix_inverse(m: SparseMatrix):
    """Exact inverse of a square matrix, or None when singular."""
    if m.nrows != m.ncols:
        return None
    ech = Echelon()
    for j in range(m.ncols):
        if ech.add(m.cols[j], tag=j) is not None:
            return None
    inv = SparseMatrix(m.ncols, m.nrows)
    for i in range(m.nrows):
        inv.cols[i] = ech.solve({i: 1})
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

    def degrees(self):
        return sorted(self.basis)

    def dim(self, deg):
        return len(self.basis.get(deg, ()))

    def labels(self, deg):
        return self.basis.get(deg, [])

    def total_dim(self):
        return sum(len(v) for v in self.basis.values())

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self.basis == other.basis

    def __repr__(self):
        return f"GradedSpace({{{', '.join(f'{d}: {len(l)}' for d, l in sorted(self.basis.items()))}}})"
