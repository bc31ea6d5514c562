import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equihh.errors import WindowError
from equihh.linalg import (
    P,
    Echelon,
    SparseMatrix,
    matrix_inverse,
    rank_kernel_image,
    rank_mod_p,
    vec_add,
    vec_axpy,
    vec_is_zero,
    vec_scale,
)
from equihh.scalars import QQ, CyclotomicField
from tests_support import (
    MatrixWindow,
    ReferenceEchelon,
    assert_elimination_matches_reference,
    assert_integral_content_one,
    normalized_columns,
    reference_rank_mod_p,
    reference_columns,
    reference_vec_add,
    reference_vec_scale,
    transpose,
    typed,
    verify_d_squared,
)

Q = Fraction
CYC = CyclotomicField(3)
ZETA = CYC.zeta()
U_Q = {0: Q(1), 2: Q(-3, 2), 5: Q(2)}
U_CYC = {0: CYC.one, 1: ZETA}

# (u, c, v, the key of u that cancels or None)
AXPY_CASES = [
    pytest.param(U_Q, 0, {2: Q(3, 2), 7: Q(1)}, None, id="zero"),
    pytest.param(U_Q, 1, {7: Q(1), 2: Q(3, 2), 1: Q(-1)}, 2, id="one"),
    pytest.param(U_Q, -1, {7: Q(1), 5: Q(2), 0: Q(1, 2)}, 5, id="minus-one"),
    pytest.param(U_Q, Q(-1), {2: Q(-3, 2), 3: Q(4)}, 2, id="fraction-minus-one"),
    pytest.param(U_Q, Q(3, 2), {7: Q(1), 2: Q(1), 0: Q(1, 3)}, 2, id="fraction"),
    pytest.param(U_CYC, CYC.one, {3: ZETA, 1: -ZETA}, 1, id="cyc-one"),
    pytest.param(U_CYC, -CYC.one, {1: ZETA, 3: ZETA}, 1, id="cyc-minus-one"),
    pytest.param(U_CYC, ZETA, {4: ZETA * ZETA, 1: -CYC.one, 0: ZETA}, 1, id="cyc"),
]


@pytest.mark.parametrize("u, c, v, cancelled", AXPY_CASES)
def test_vec_axpy_matches_two_pass(u, c, v, cancelled):
    u = dict(u)
    v_before = typed(v)
    want = typed(vec_add(u, vec_scale(c, v)))
    assert want == typed(reference_vec_add(u, reference_vec_scale(c, v)))
    out = vec_axpy(u, c, v)
    assert out is u  # changed in place
    assert typed(u) == want  # same values, key order and scalar types
    assert typed(v) == v_before
    if cancelled is not None:
        assert cancelled not in u


@pytest.mark.parametrize("seed", range(6))
def test_elimination_matches_two_pass_reference(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(3, 8), rng.randint(3, 9)
    entries = [0, 0, 0, 1, -1, 1, -1, 2, -3]
    rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
    assert_elimination_matches_reference(SparseMatrix.from_rows(rows))


FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 12))


def cyclotomic(coeffs):
    return CYC.element(coeffs)


@st.composite
def sparse_matrices(draw, field):
    """Sparse matrices with entries of denominators 1..12, empty columns
    and columns that are rational combinations of earlier ones."""
    nrows = draw(st.integers(1, 7))
    if field == QQ:
        nonzero = FRACTIONS
    else:
        nonzero = st.builds(cyclotomic, st.lists(FRACTIONS, min_size=2, max_size=2))
    entry = st.one_of(st.just(0), st.just(0), nonzero)
    cols = []
    for kind in draw(st.lists(st.sampled_from(["new", "new", "dependent", "empty"]), max_size=9)):
        if kind == "empty":
            cols.append({})
        elif kind == "dependent" and cols:
            col = {}
            for c, v in zip(draw(st.lists(FRACTIONS, min_size=len(cols), max_size=len(cols))), cols):
                col = reference_vec_add(col, reference_vec_scale(c, v))
            cols.append(col)
        else:
            cols.append({i: x for i in range(nrows) if (x := draw(entry))})
    return SparseMatrix(nrows, len(cols), cols)


def reference_inverse(m, field):
    ech = ReferenceEchelon(field)
    for j, col in enumerate(m.cols):
        if not ech.add(col, tag=j)[0]:
            return None
    return [ech.solve({i: Fraction(1)}) for i in range(m.nrows)]


def square_part(mat, shift, field):
    """The leading square block of mat plus shift times the identity."""
    n = min(mat.nrows, mat.ncols)
    sq = SparseMatrix(n, n, [{i: x for i, x in col.items() if i < n} for col in mat.cols[:n]])
    return sq + SparseMatrix.identity(n, field.one).scale(shift) if shift else sq


@pytest.mark.parametrize("field", [QQ, CYC], ids=["Q", "Q(zeta_3)"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fraction_free_echelon_matches_rational_reference(field, data):
    """The fraction-free Echelon returns what the rational two-pass
    reference returns, value, scalar type and key order: kernels,
    add's combination of a generator already in the span and None for
    one that adds a pivot (tagged and untagged generators), solves and
    inverses; its stored columns with their combinations are
    integral with content 1."""
    mat = data.draw(sparse_matrices(field))
    assert_elimination_matches_reference(mat, field)
    ech, ref = Echelon(field), ReferenceEchelon(field)
    for j, col in enumerate(mat.cols):
        tag = j if j % 3 else None
        got, (residual, combo) = ech.add(col, tag=tag), ref.add(col, tag=tag)
        assert (got is None) == bool(residual)
        if got is not None:
            assert typed(got) == typed(combo)
        assert_integral_content_one(ech)
    assert normalized_columns(ech, field) == reference_columns(ref)
    for vec in mat.cols + [{i: Fraction(1)} for i in range(mat.nrows)]:
        got, want = ech.solve(vec), ref.solve(vec)
        assert (got is None) == (want is None)
        if got is not None:
            assert typed(got) == typed(want)
    for shift in (0, 5):
        sq = square_part(mat, shift, field)
        got, want = matrix_inverse(sq), reference_inverse(sq, field)
        assert (got is None) == (want is None)
        if got is not None:
            assert [typed(col) for col in got.cols] == [typed(col) for col in want]


def test_rank_kernel_proportional_rows():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]])
    rank, kernel = rank_kernel_image(m)
    assert rank == 1
    assert len(kernel) == 1
    # kernel basis {(-2, 1)}
    assert kernel[0] == {0: Fraction(-2), 1: Fraction(1)}


def test_rank_identity():
    rank, kernel = rank_kernel_image(SparseMatrix.identity(3))
    assert rank == 3 and kernel == []


def test_rank_zero_matrix():
    rank, kernel = rank_kernel_image(SparseMatrix(4, 5))
    assert rank == 0
    assert len(kernel) == 5


def test_kernel_vectors_annihilated():
    m = SparseMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    rank, kernel = rank_kernel_image(m)
    assert rank == 2
    for v in kernel:
        assert vec_is_zero(m.apply(v))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4), min_size=3, max_size=5
    )
)
def test_rank_nullity(rows):
    m = SparseMatrix.from_rows(rows)
    rank, kernel = rank_kernel_image(m)
    assert rank + len(kernel) == m.ncols
    for v in kernel:
        assert vec_is_zero(m.apply(v))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(-4, 4, max_denominator=6), min_size=4, max_size=4),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.fractions(-3, 3, max_denominator=5), min_size=3, max_size=3),
    st.integers(0, 5),
)
def test_rank_mod_p_equals_exact_rank(rows, coeffs, stop):
    # a last row that is a rational combination of the others keeps the
    # rank below the column count
    combination = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(4)]
    m = SparseMatrix.from_rows(rows + [combination])
    rank, _ = rank_kernel_image(m)
    assert rank_mod_p(m) == rank
    assert rank_mod_p(m, stop=stop) == min(rank, stop)


@st.composite
def planted_matrices(draw):
    """Sparse integer matrices of up to 8 rows and 12 columns: up to 8
    drawn columns and integer combinations of them, in a random order."""
    nrows = draw(st.integers(1, 8))
    column = st.dictionaries(
        st.integers(0, nrows - 1), st.integers(-3, 3).filter(bool), max_size=3
    )
    drawn = draw(st.lists(column, min_size=1, max_size=8))
    planted = []
    for _ in range(draw(st.integers(0, 12 - len(drawn)))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(drawn), max_size=len(drawn)))
        vec = {}
        for c, col in zip(coeffs, drawn):
            vec_axpy(vec, c, col)
        planted.append(vec)
    cols = draw(st.permutations(drawn + planted))
    return SparseMatrix(nrows, len(cols), cols)


@settings(max_examples=200, deadline=None)
@given(planted_matrices(), st.integers(0, 12))
def test_rank_mod_p_matches_exact_and_lowest_row_ranks(m, stop):
    rank, _ = rank_kernel_image(m)
    assert rank_mod_p(m) == reference_rank_mod_p(m) == rank
    assert rank_mod_p(m, stop=stop) == reference_rank_mod_p(m, stop=stop) == min(rank, stop)


@pytest.mark.parametrize(
    "cols",
    [
        # the second column pivots on the touched row 0, which must be
        # cleared from the first column, or the third reduces to row 0
        [{0: 1, 1: 1}, {0: 1}, {1: 1}],
        # the second column has the fresh row 0 below its touched row 1; a
        # pivot on row 1 leaves the first column unreduced there
        [{2: 1, 1: 1}, {1: 1, 0: 1}, {2: 1, 0: -1}],
    ],
    ids=["touched-pivot", "fresh-row"],
)
def test_rank_mod_p_keeps_stored_columns_reduced(cols):
    m = SparseMatrix(3, 3, cols)
    assert rank_mod_p(m) == rank_kernel_image(m)[0] == 2


def test_rank_mod_p_reads_ints_and_rejects_cyclotomic():
    assert rank_mod_p(SparseMatrix(2, 3, [{0: 2}, {}, {0: 4, 1: P}])) == 1
    assert rank_mod_p(SparseMatrix(2, 2, [{0: 2, 1: 1}, {0: 1, 1: P + 3}])) == 2
    assert rank_mod_p(SparseMatrix(1, 2, [{}, {0: ZETA}])) is None
    assert rank_mod_p(SparseMatrix(1, 2, [{0: Q(1, P)}, {0: Q(1)}])) is None
    # the rank reaches stop before the cyclotomic column is read
    assert rank_mod_p(SparseMatrix(1, 2, [{0: Q(1)}, {0: ZETA}]), stop=1) == 1


def test_echelon_express():
    ech = Echelon()
    ech.add({0: Fraction(1), 1: Fraction(1)}, tag="a")
    ech.add({1: Fraction(1)}, tag="b")
    assert ech.solve({0: Fraction(2), 1: Fraction(5)}) == {"a": 2, "b": 3}
    assert ech.solve({2: Fraction(1)}) is None


def test_echelon_solve_over_tags():
    ech = Echelon()
    ech.add({0: Fraction(1), 1: Fraction(1)}, tag="a")
    ech.add({1: Fraction(2)})  # untagged: spans, but carries no coordinate
    ech.add({1: Fraction(1), 2: Fraction(1)}, tag="b")
    # 3·(e0 + e1) + 2·(e1 + e2) - 5/2·(2 e1)
    assert ech.solve({0: Fraction(3), 2: Fraction(2)}) == {"a": 3, "b": 2}
    assert ech.solve({1: Fraction(4)}) == {}
    assert ech.solve({}) == {}
    assert ech.solve({3: Fraction(1)}) is None
    assert ech.solve({0: Fraction(1), 3: Fraction(1)}) is None


def test_a_cyclotomic_solve_changes_nothing():
    """Solving a cyclotomic vector against an echelon over Q leaves its
    field Q: a later rational solve returns the int a fresh echelon
    returns, not the Cyc 2.  ``add`` still takes the field of its first
    cyclotomic entry."""
    ech = Echelon(QQ)
    ech.add({0: 1}, tag="a")
    assert ech.solve({0: CYC.embed(1)}) == {"a": CYC.embed(1)}
    assert ech.field == QQ
    assert typed(ech.solve({0: 2})) == [("a", 2, int)]
    ech.add({1: ZETA}, tag="b")
    assert ech.field == CYC


def test_matrix_inverse_and_singular():
    m = SparseMatrix.from_rows([[2, 1], [1, 1]])
    assert matrix_inverse(m).to_rows() == [[1, -1], [-1, 2]]
    assert matrix_inverse(m) * m == SparseMatrix.identity(2)
    assert matrix_inverse(SparseMatrix.from_rows([[1, 2], [2, 4]])) is None
    assert matrix_inverse(SparseMatrix(2, 3)) is None


def window(dims, rows, lo, hi):
    """MatrixWindow over degrees lo..hi, empty where dims has no entry."""
    return MatrixWindow({k: dims.get(k, 0) for k in range(lo, hi + 1)}, rows)


def test_homology_exact_complex():
    # 0 -> Q -(id)-> Q -> 0 in degrees 0, 1
    win = window({0: 1, 1: 1}, {0: [[1]]}, -1, 2)
    assert win.homology(0) == (0, [])
    assert win.homology(1)[0] == 0


def test_homology_zero_differential():
    win = window({0: 2, 1: 3, 2: 1}, {}, -1, 3)
    assert win.homology(0)[0] == 2
    assert win.homology(1)[0] == 3
    assert win.homology(2)[0] == 1


def test_homology_rank_nullity_by_hand():
    # d = [[1, 1]] from Q^2 (degree 0) to Q (degree 1): kernel is 1-dim
    win = window({0: 2, 1: 1}, {0: [[1, 1]]}, -1, 2)
    dim, reps = win.homology(0)
    assert dim == 1
    assert len(reps) == 1


def test_window_error():
    win = window({0: 1}, {}, 0, 1)
    with pytest.raises(WindowError):
        win.homology(0)


def test_d_squared_checked():
    # d0 = id, d1 = id: d^2 = id != 0 is reported at degree 0, column 0
    win = window({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]}, 0, 2)
    assert verify_d_squared(win) == (1, [(0, 0)])


def test_matrix_product_and_transpose():
    a = SparseMatrix.from_rows([[1, 2], [0, 1]])
    b = SparseMatrix.from_rows([[1, 0], [3, 1]])
    assert (a * b).to_rows() == [[7, 2], [3, 1]]
    assert transpose(a).to_rows() == [[1, 0], [2, 1]]
