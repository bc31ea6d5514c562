"""Layer tracing from outside the program.

The tracer replaces public functions and methods of ``equihh`` with
wrappers that record a span (name, start, end, parent, op id) or bump a
counter, and puts the originals back on ``uninstall``.  Nothing under
``src/`` changes.

Functions are replaced at every binding site, not only in the defining
module: ``decomposition`` and ``cli`` import ``build_window``,
``compose_induced`` and others by name, so patching only the defining
module would miss their calls.  Methods are replaced on the class, which
every caller shares.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "equihh"

# (span name, attribute of the module the name starts with): the attribute
# is "function" or "Class.method".
SPANS = [
    ("decomposition.pipeline_build", "DecompositionPipeline.__init__"),
    ("decomposition.run_checks", "run_checks"),
    ("equivariant.lift_action", "lift_action"),
    ("equivariant.category_build", "EquivariantCategory.__init__"),
    ("equivariant.validate", "validate_equivariant"),
    ("hochschild.window_build", "HochschildWindow.__init__"),
    ("hochschild.homology_basis", "WindowBase.homology_basis"),
    ("hochschild.homology_matrix", "ChainMap.homology_matrix"),
    ("hochschild.functoriality", "compose_induced"),
    ("hochschild.certificate_check", "HomotopyCertificate.check"),
    ("hochschild.solve_homotopy", "solve_homotopy"),
    ("hochschild.transport", "conjugate_transport"),
    ("linalg.rank_kernel_image", "rank_kernel_image"),
    ("linalg.matrix_inverse", "matrix_inverse"),
    ("linalg.matmul", "SparseMatrix.__mul__"),
    ("documents.parse", "parse_document"),
    ("documents.render", "canonical_json"),
]

# Calls too frequent for a span each (about 10^5 per op): counted only.
COUNTERS = [
    ("dgcat.compose_calls", "DgCategory.compose"),
    ("dgcat.functor_apply_calls", "DgFunctor.apply"),
]


def self_times(spans):
    """Self seconds per span name: each span's duration minus the time its
    direct children cover.  ``spans`` is a list of (name, start, end,
    parent index or -1); children of one thread nest, so their union is
    their sum."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def inclusive_times(spans):
    """Wall seconds per span name, counting a span only when no ancestor
    has the same name, so recursion is not counted twice."""
    out = Counter()
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out


def layer_metrics(spans, counts):
    """One op's per-layer metrics from its spans (parent indices local to
    the op) and counters.  Times are inclusive, except ``run_checks_s``,
    which is self time: the checks' own work without the layer calls they
    make."""
    incl = inclusive_times(spans)
    own = self_times(spans)
    calls = Counter(name for name, _, _, _ in spans)
    basis_calls = calls["hochschild.homology_basis"]
    repeats = counts["hochschild.homology_basis_repeats"]
    return {
        "decomposition.pipeline_build_s": incl["decomposition.pipeline_build"],
        "decomposition.run_checks_s": own["decomposition.run_checks"],
        "equivariant.lift_action_s": incl["equivariant.lift_action"],
        "equivariant.category_build_s": incl["equivariant.category_build"],
        "equivariant.validate_s": incl["equivariant.validate"],
        "equivariant.roster_objects": counts["equivariant.roster_objects"],
        "hochschild.window_build_s": incl["hochschild.window_build"],
        "hochschild.window_builds": calls["hochschild.window_build"],
        "hochschild.window_chains": counts["hochschild.window_chains"],
        "hochschild.differential_nnz": counts["hochschild.differential_nnz"],
        "hochschild.homology_basis_s": incl["hochschild.homology_basis"],
        "hochschild.homology_basis_calls": basis_calls,
        "hochschild.homology_basis_hit_ratio": repeats / basis_calls if basis_calls else 0.0,
        "hochschild.homology_matrix_s": incl["hochschild.homology_matrix"],
        "hochschild.homology_matrix_calls": calls["hochschild.homology_matrix"],
        "hochschild.functoriality_s": incl["hochschild.functoriality"],
        "hochschild.certificate_check_s": incl["hochschild.certificate_check"],
        "hochschild.certificates_checked": calls["hochschild.certificate_check"],
        "hochschild.solve_homotopy_s": incl["hochschild.solve_homotopy"],
        "hochschild.transport_s": incl["hochschild.transport"],
        "linalg.rank_kernel_image_s": incl["linalg.rank_kernel_image"],
        "linalg.rank_kernel_image_calls": calls["linalg.rank_kernel_image"],
        "linalg.matrix_inverse_s": incl["linalg.matrix_inverse"],
        "linalg.matmul_s": incl["linalg.matmul"],
        "linalg.matmul_calls": calls["linalg.matmul"],
        "dgcat.compose_calls": counts["dgcat.compose_calls"],
        "dgcat.functor_apply_calls": counts["dgcat.functor_apply_calls"],
        "documents.parse_s": incl["documents.parse"],
        "documents.render_s": incl["documents.render"],
    }


class Tracer:
    """Spans and counters for one process.  Spans stay in memory; ``dump``
    writes them out once the benchmark is done."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op)
        self._stack = []
        self._op = None
        self._op_first_span = 0
        self.counts = Counter()
        self._seen_bases = set()
        self._keep_alive = []
        self._restore = []
        self._after = {
            "equivariant.category_build": self._after_category,
            "hochschild.window_build": self._after_window,
            "hochschild.homology_basis": self._after_homology_basis,
        }

    # -- installing ------------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _replace(self, name, attr, make):
        module = sys.modules[f"{PACKAGE}.{name.partition('.')[0]}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            self._restore.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self._modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)
                    self._restore.append((mod, binding, original))

    def install(self):
        for name, attr in SPANS:
            self._replace(name, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, attr in COUNTERS:
            self._replace(name, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def uninstall(self):
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters read at layer boundaries ---------------------------------

    def _after_category(self, args, result):
        self.counts["equivariant.roster_objects"] += len(args[0].order)

    def _after_window(self, args, result):
        win = args[0]
        self.counts["hochschild.window_chains"] += sum(
            win.dim(k) for k in range(win.lo, win.hi + 1)
        )
        self.counts["hochschild.differential_nnz"] += sum(
            win.differential(k).nnz() for k in range(win.lo, win.hi)
        )

    def _after_homology_basis(self, args, result):
        win, k = args[0], args[1]
        key = (id(win), k)
        if key in self._seen_bases:
            self.counts["hochschild.homology_basis_repeats"] += 1
        else:
            self._seen_bases.add(key)
            self._keep_alive.append(win)  # an id stays unique while its window lives

    # -- per-op results ----------------------------------------------------

    def begin_op(self, op):
        self._op = op
        self._op_first_span = len(self.spans)
        self.counts.clear()
        self._seen_bases.clear()
        self._keep_alive.clear()

    def end_op(self):
        """Per-layer metrics of the op just finished."""
        base = self._op_first_span
        local = [
            (name, start, end, parent - base if parent >= 0 else -1)
            for name, start, end, parent, _ in self.spans[base:]
        ]
        self._op = None
        self._keep_alive.clear()
        return layer_metrics(local, self.counts)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
