"""Shared fixtures for the test suite."""

from fractions import Fraction

from equihh.dgcat import NatTransform, algebra_category, identity_functor, parity_sign
from equihh.groups import FiniteGroup, GroupAction
from equihh.hochschild import HomologyBasis, WindowBase
from equihh.linalg import Echelon, SparseMatrix, rank_kernel_image
from equihh.scalars import QQ


def scaled_action():
    """Non-strict Z/2 action on the point: identity functors but
    eta = (1/4)·id, theta[s,s] = id and every theta touching e = (1/4)·id,
    a consistent coherence datum that exercises nontrivial theta/eta."""
    cat = algebra_category(QQ, "pt", [("1", 0)], {})
    z2 = FiniteGroup.cyclic(2, names=["e", "s"])
    ident = identity_functor(cat)
    lam = Fraction(1, 4)
    scalars = {
        ("e", "e"): lam,
        ("e", "s"): lam,
        ("s", "e"): lam,
        ("s", "s"): Fraction(1),
    }
    theta = {
        pair: NatTransform(ident, ident, {"pt": cat.unit("pt").scale(c)}, name=f"theta{pair}")
        for pair, c in scalars.items()
    }
    eta = NatTransform(ident, ident, {"pt": cat.unit("pt").scale(lam)}, name="eta")
    return GroupAction(z2, cat, {g: ident for g in z2.elements}, theta, eta, name="scaled")


# -- reference paths for the fast window code -------------------------------


def _basis_slots(win, chain):
    pairs = win._slot_pairs(chain.objects)
    return [win.category.basis_mor(x, y, *key) for (x, y), key in zip(pairs, chain.keys)]


def reference_d1_chain(win, chain):
    """d1 of one basis chain through Mor objects: DgCategory.d on each slot,
    expanded with HochschildWindow._add_image."""
    cat = win.category
    out = {}
    slots = _basis_slots(win, chain)
    prefix = 0
    for t, slot in enumerate(slots):
        dslot = cat.d(slot)
        if not dslot.is_zero():
            mors = list(slots)
            mors[t] = dslot
            win._add_image(out, chain.objects, mors, parity_sign(prefix))
        prefix += chain.keys[t][0]
    return out


def reference_d2_chain(win, chain):
    """d2 of one basis chain through Mor objects and DgCategory.compose."""
    cat = win.category
    out = {}
    m = chain.bar_degree
    if m == 0:
        return out
    objs = chain.objects
    slots = _basis_slots(win, chain)
    degs = [key[0] for key in chain.keys]
    for i in range(m):
        prod = cat.compose(slots[i], slots[i + 1])
        mors = slots[:i] + [prod] + slots[i + 2 :]
        win._add_image(out, objs[: i + 1] + objs[i + 2 :], mors, parity_sign(i))
    prod = cat.compose(win.functor.apply(slots[m]), slots[0])
    sign = parity_sign(m + degs[m] * sum(degs[:m]))
    win._add_image(out, (objs[m],) + objs[1:m], [prod] + slots[1:m], sign)
    return out


def reference_matrix(win, k, column):
    """The matrix of degree k whose j-th column is column(win, chain j)."""
    mat = SparseMatrix(win.dim(k + 1), win.dim(k))
    for j, chain in enumerate(win.chains_at(k)):
        mat.cols[j] = column(win, chain)
    return mat


def full_elimination_basis(win, k):
    """HomologyBasis with every boundary column added to the echelon."""
    _, cycles, _ = rank_kernel_image(win.differential(k))
    ech = Echelon()
    for col in win.differential(k - 1).cols:
        ech.add(col, tag=None)
    reps = []
    for cyc in cycles:
        residual, _ = ech.add(cyc, tag=len(reps))
        if residual:
            reps.append(cyc)
    return HomologyBasis(win, k, reps, ech)


class MatrixWindow(WindowBase):
    """A window over hand-written differentials {degree: rows}; degrees
    without rows get a zero differential."""

    def __init__(self, dims, rows_by_degree):
        self.lo = min(dims)
        self.hi = max(dims)
        self._chains = {k: list(range(n)) for k, n in dims.items()}
        self._homology = {}
        self._mats = {}
        for k, rows in rows_by_degree.items():
            mat = SparseMatrix(dims[k + 1], dims[k])
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    mat.set(i, j, Fraction(x))
            self._mats[k] = mat

    def differential(self, k):
        if k in self._mats:
            return self._mats[k]
        return SparseMatrix(self.dim(k + 1), self.dim(k))
