"""Spans around the package's public functions, recorded from outside it.

The tracer rebinds each traced function wherever a package module holds a
reference to it (``pipeline.curvature`` as well as ``liegroup.curvature``)
and rebinds class attributes for methods, so no file of the package changes.
Each call records a span: name, start, end, parent span and request number.
Spans stay in memory and are written to one ``.npz`` file at the end.

A span's self time is its duration minus the durations of its direct child
spans.  Work counts (``terms``, ``cells``, ...) are read from arguments and
return values after the span has closed, so their cost lands in the
caller's self time and in the reported tracing overhead, not in the span.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _max_bits(m):
    return max((max(abs(x.numerator), x.denominator).bit_length()
                for row in m for x in row), default=0)


def _tally_rref(c, args, result, exc):
    m = args[0]
    c["linalg.rref.cells"] += len(m) * (len(m[0]) if m else 0)
    c["linalg.rref.max_bits"] = max(c["linalg.rref.max_bits"], _max_bits(m))


def _tally_operator(c, args, result, exc):
    c["spin.CliffordRep.operator.terms"] += len(args[1].coeffs)


def _tally_det_e2(c, args, result, exc):
    c["classifier.det_e2.cross_checked"] += result is not None and result["member"] is not None


def _tally_run(c, args, result, exc):
    c["pipeline.run.early_exits"] += result is not None and not result.cocalibrated


def _tally_liouville(c, args, result, exc):
    if result is not None:
        c["liouville.solve_liouville.iterations"] += result.iterations
    c["liouville.solve_liouville.diverged"] += isinstance(exc, RuntimeError)


def _tally_strominger(c, args, result, exc):
    if result is not None:
        c["bundle.strominger_check.points"] += result.points


#: (module, attribute path, tally) for every traced public function.
TRACED = [
    ("cli", "main", None),
    ("pipeline", "run", _tally_run),
    ("liegroup", "curvature", None),
    ("liegroup", "holonomy_algebra", None),
    ("liegroup", "with_torsion", None),
    ("liegroup", "LieAlgebraData.ce_d", None),
    ("liegroup", "integrability_residual", None),
    ("liegroup", "parse_algebra", None),
    ("spin", "standard_rep", None),
    ("spin", "CliffordRep.operator", _tally_operator),
    ("spin", "CliffordRep.word", None),
    ("linalg", "matmul", None),
    ("linalg", "rref", _tally_rref),
    ("linalg", "rank", None),
    ("linalg", "nullspace", None),
    ("linalg", "det", None),
    ("linalg", "charpoly", None),
    ("classifier", "solve_family", None),
    ("classifier", "kernel_dims", None),
    ("classifier", "det_e2", _tally_det_e2),
    ("classifier", "quadric_member", None),
    ("g2", "project3", None),
    ("g2", "char_torsion", None),
    ("forms", "Form.wedge", None),
    ("forms", "Form.hook", None),
    ("forms", "Form.hodge", None),
    ("forms", "parse_form", None),
    ("liouville", "solve_liouville", _tally_liouville),
    ("coframe", "riemann_ricci", None),
    ("coframe", "numeric_d", None),
    ("coframe", "structure_functions", None),
    ("bundle", "assemble_N5", None),
    ("bundle", "strominger_check", _tally_strominger),
    ("bundle", "kahler_ricci_eigenvalues", None),
]

#: Layers of the exact arithmetic; the float stream must never reach them.
EXACT_LAYERS = ("linalg", "spin", "liegroup", "classifier")

PACKAGE = "g2torsion"


class Tracer:
    """``install`` rebinds every traced function to a span-recording wrapper;
    ``uninstall`` puts the originals back.  Spans accumulate across installs."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path, _ in TRACED]
        self.counts = defaultdict(int)
        self.request = -1
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, nid, fn, tally):
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack, counts = self.span_start, self.span_end, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if tally is not None:
                    tally(counts, args, result, exc)

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for nid, (mod, path, tally) in enumerate(TRACED):
            owner = importlib.import_module(f"{PACKAGE}.{mod}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(nid, orig, tally))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(nid, orig, tally)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ---------------------------------------------------------- results

    def _durations(self):
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def span_stats(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        dur, own = self._durations()
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, k in enumerate(self.span_name):
            calls[k] += 1
            incl[k] += dur[i]
            self_s[k] += own[i]
        return {name: (calls[k], incl[k], self_s[k]) for k, name in enumerate(self.names)}

    def first_below(self, handlers, first_request):
        """Inclusive seconds by name of the outermost spans outside the
        `handlers` modules whose parent is a handler span, over requests
        numbered `first_request` and later."""
        dur, _ = self._durations()
        module = [name.split(".")[0] for name in self.names]
        out = defaultdict(float)
        for i, k in enumerate(self.span_name):
            p = self.span_parent[i]
            if (self.span_request[i] >= first_request and p >= 0
                    and module[k] not in handlers
                    and module[self.span_name[p]] in handlers):
                out[self.names[k]] += dur[i]
        return dict(out)

    def self_time_under(self, root, first_request):
        """Self seconds by name over `root` spans and their descendants,
        over requests numbered `first_request` and later."""
        rid = self.names.index(root)
        _, own = self._durations()
        under = [False] * len(own)
        out = defaultdict(float)
        for i, k in enumerate(self.span_name):
            p = self.span_parent[i]
            under[i] = k == rid or (p >= 0 and under[p])
            if under[i] and self.span_request[i] >= first_request:
                out[self.names[k]] += own[i]
        return dict(out)

    def save(self, path):
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 request=np.frombuffer(self.span_request, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
