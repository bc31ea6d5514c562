"""``solve_homotopy`` against its per-call reference: the solver reads one
column echelon per target window and degree, built once for every solve,
and joins the top degree to its downward sweep when the source has no
chain above it; where the reference solves, it must return what a fresh
elimination per call returns.  Where a sweep step fails, one joint system
in every unknown decides, so the solver returns None only when no
homotopy exists."""

from hypothesis import event, given, settings
from hypothesis import strategies as st

import equihh.hochschild as hochschild
from equihh.decomposition import DecompositionPipeline, run_checks
from equihh.examples import example_e1
from equihh.hochschild import ColumnMap, HomotopyCertificate, LinearComboMap, solve_homotopy
from equihh.linalg import Echelon
from equihh.scalars import QQ, CyclotomicField
from tests_support import (
    MatrixWindow,
    reference_homotopy_exists,
    reference_solve_homotopy,
    solved_columns,
    typed,
)


def e1_solves(monkeypatch):
    """Run every check of E1 at -2..0; return, for each solve, its
    certificate, the solved homotopy and the (echelon, tag) of each
    generator added to an echelon during the solve."""
    adds, solves = [], []
    add = Echelon.add

    def spy(self, vec, tag=None):
        adds.append((self, tag))
        return add(self, vec, tag=tag)

    def recording(cert, name="H_solved"):
        start = len(adds)
        solved = solve_homotopy(cert, name=name)
        solves.append((cert, solved, adds[start:]))
        return solved

    monkeypatch.setattr(Echelon, "add", spy)
    monkeypatch.setattr(hochschild, "solve_homotopy", recording)
    b = example_e1()
    pipe = DecompositionPipeline(
        b.action, b.declared, b.generators, hh_names=b.hh_names or None,
        representations=b.representations, degrees=(-2, 0),
    )
    assert run_checks(pipe).theorem_holds
    return solves


def echelon_state(ech):
    return (
        [typed(col) for col in ech.columns],
        list(ech.pivots.items()),
        [typed(combo) for combo in ech.combos],
        ech.field,
    )


def test_e1_solves_match_the_reference(monkeypatch):
    """The four certificates of E1 at -2..0 (the trace decompositions and
    cross-class certificates) solve, with the source's top degree in the
    sweep, to the reference's columns, values and key order alike."""
    solves = e1_solves(monkeypatch)
    assert len(solves) == 4
    for cert, solved, _ in solves:
        assert cert.f.src.dim(cert.f.src.hi) == 0
        ref = reference_solve_homotopy(cert)
        assert solved_columns(solved) == solved_columns(ref)
        assert solved_columns(solved)


def test_each_column_echelon_is_built_once(monkeypatch):
    """The four solves of E1 at -2..0 share one target window.  Every
    generator they add goes to one of its column echelons, and each
    column of each d_{k-1} is added once across the four."""
    solves = e1_solves(monkeypatch)
    tgt = solves[0][0].f.tgt
    assert all(cert.f.tgt is tgt for cert, _, _ in solves)
    degree_of = {id(ech): k for k, ech in tgt._column_echelons.items()}
    assert sorted(degree_of.values()) == [-3, -2, -1]
    tags = {}
    for _, _, adds in solves:
        for ech, tag in adds:
            tags.setdefault(degree_of[id(ech)], []).append(tag)
    assert tags == {k: list(range(tgt.dim(k))) for k in degree_of.values()}


def test_a_solve_leaves_the_cached_echelons_unchanged(monkeypatch):
    """Solving again on E1's certificates, and solving a cyclotomic vector
    against a column echelon over Q, changes no cached echelon's columns,
    pivots, combinations or field, and solves to the same homotopies."""
    solves = e1_solves(monkeypatch)
    tgt = solves[0][0].f.tgt
    before = {k: echelon_state(ech) for k, ech in tgt._column_echelons.items()}
    assert all(state[3] == QQ for state in before.values())
    for cert, solved, _ in solves:
        assert solved_columns(solve_homotopy(cert)) == solved_columns(solved)
    ech = tgt.column_echelon(-1)
    column = next(col for col in tgt.differential(-1).cols if col)
    zeta = CyclotomicField(3).embed(1)
    assert ech.solve({r: zeta * x for r, x in column.items()}) is not None
    assert ech.solve({tgt.dim(0): zeta}) is None
    assert {k: echelon_state(e) for k, e in tgt._column_echelons.items()} == before


# ---------------------------------------------------------------------------
# random complexes


@st.composite
def complexes(draw):
    """A complex over degrees 0..top with d∘d = 0: lone Q's and Q -(c)-> Q
    pieces, c a nonzero int, put through random elementary changes of
    basis in each degree (b_i += c·b_j: column i += c·column j of d_k,
    row j -= c·row i of d_{k-1})."""
    top = draw(st.integers(2, 4))
    pieces = [[] for _ in range(top + 1)]  # degree -> basis entries
    arrows = []  # (degree, source position, target position, scalar)
    for k in range(top + 1):
        pieces[k].extend(["lone"] * draw(st.integers(0, 2)))
        if k < top:
            for _ in range(draw(st.integers(0, 2))):
                c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
                arrows.append((k, len(pieces[k]), len(pieces[k + 1]), c))
                pieces[k].append("source")
                pieces[k + 1].append("target")
    dims = {k: len(p) for k, p in enumerate(pieces)}
    rows = {k: [[0] * dims[k] for _ in range(dims[k + 1])] for k in range(top)}
    for k, j, i, c in arrows:
        rows[k][i][j] = c
    for k in range(top + 1):
        if dims[k] < 2:
            continue
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.permutations(range(dims[k])))[:2]
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            if k < top:
                for row in rows[k]:
                    row[i] += c * row[j]
            if k > 0:
                rows[k - 1][j] = [y - c * x for x, y in zip(rows[k - 1][i], rows[k - 1][j])]
    return dims, rows


@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_random_complexes_match_the_reference(complex_, data):
    """On random complexes, with residual λ·id - (dH0 + H0d) for a random
    integer H0 (solvable for λ = 0, and for λ ≠ 0 only where the solved
    degrees are acyclic), the solver solves wherever the reference does,
    to the same columns; every homotopy it returns certifies; and it
    returns None only when the brute-force joint solve finds none."""
    dims, rows = complex_
    win = MatrixWindow(dims, rows)
    for k in range(win.lo, win.hi):
        d_k, d_next = win.differential(k), win.differential(k + 1)
        assert all(not d_next.apply(col) for col in d_k.cols)
    lam = data.draw(st.sampled_from([0, 0, 1, 2, -1]))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    h0 = {}
    for k in range(win.lo + 1, win.hi + 1):
        column = st.lists(entry, min_size=dims[k - 1], max_size=dims[k - 1])
        cols = data.draw(st.lists(column, min_size=dims[k], max_size=dims[k]))
        h0[k] = [{i: c for i, c in enumerate(col) if c} for col in cols]
    f = ColumnMap(win, win, {k: [{i: lam} if lam else {} for i in range(n)] for k, n in dims.items()})
    zero = LinearComboMap(win, win, [])
    cert = HomotopyCertificate(f, zero, ColumnMap(win, win, h0))
    solved, ref = solve_homotopy(cert), reference_solve_homotopy(cert)
    event(f"n_up > 0: {dims[win.hi] > 0}, solved: {solved is not None}, swept: {ref is not None}")
    if ref is not None:
        assert solved is not None
        assert solved_columns(solved) == solved_columns(ref)
    if solved is None:
        assert lam and not reference_homotopy_exists(cert)
    else:
        h = LinearComboMap(win, win, [(1, cert.h), (1, solved)])
        assert HomotopyCertificate(f, zero, h).check()


def test_a_failed_sweep_step_falls_back_to_the_joint_system():
    """d_1 = (0 -3) on C_1 = Q² → C_2 = Q, and residual -(dH0 + H0d) for
    H0_2 = (1, 0)ᵀ.  The sweep keeps H_2 = 0 at degree 2, which leaves
    3·e_0 at the chain e_1 of degree 1 with nothing to solve it (C_0 = 0);
    H_2 = -H0_2, which d_1 also kills, solves both degrees.  The reference
    sweep returns None; the solver returns a homotopy that certifies."""
    win = MatrixWindow({0: 0, 1: 2, 2: 1, 3: 0}, {1: [[0, -3]]})
    zero = LinearComboMap(win, win, [])
    h0 = ColumnMap(win, win, {2: [{0: 1}]})
    cert = HomotopyCertificate(zero, zero, h0)
    assert reference_solve_homotopy(cert) is None
    assert reference_homotopy_exists(cert)
    solved = solve_homotopy(cert)
    assert solved_columns(solved) == {1: [[], []], 2: [[(0, -1, int)]]}
    h = LinearComboMap(win, win, [(1, h0), (1, solved)])
    assert HomotopyCertificate(zero, zero, h).check()
