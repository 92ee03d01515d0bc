"""Per-layer tracing of prodmat from outside the program.

`Tracer.install` replaces each function listed in `TRACED` with a wrapper
that records one span per call: name, start, end, parent span and the
operation id of the tree it belongs to.  Spans are kept in flat arrays in
memory and reduced to per-layer metrics when the run ends; a span's self time
is its duration minus the time covered by its child spans.

Wrapping follows four rules:

* a function is rebound in every prodmat module that binds it (its home
  module and each importer), so internal calls are caught too;
* methods are wrapped on their class (``Matrix.__init__``), never by
  rebinding the class name;
* a generator function is timed per ``next()`` step, not per creation;
* a name missing from the program is reported as absent, not as a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (metric prefix, home module, attribute); "Class.method" wraps on the class.
TRACED = (
    ("matrix.parse_matrix", "prodmat.matrix", "parse_matrix"),
    ("matrix.Matrix", "prodmat.matrix", "Matrix.__init__"),
    ("matrix.write_matrix", "prodmat.matrix", "write_matrix"),
    ("info.InfoFunction", "prodmat.info", "InfoFunction.__init__"),
    ("info.is_independent_exact", "prodmat.info", "InfoFunction.is_independent_exact"),
    ("queyranne.minimize_symmetric_with_candidates", "prodmat.queyranne", "minimize_symmetric_with_candidates"),
    ("products.recognize_one_product", "prodmat.products", "recognize_one_product"),
    ("products.recognize_two_product", "prodmat.products", "recognize_two_product"),
    ("products.factorize_irreducible", "prodmat.products", "factorize_irreducible"),
    ("products.reconstruct_factors", "prodmat.products", "reconstruct_factors"),
    ("products.one_product", "prodmat.products", "one_product"),
    ("products.multiplicity_table", "prodmat.info", "multiplicity_table"),
    ("products.two_product", "prodmat.products", "two_product"),
    ("products.iter_two_product_certs_exact", "prodmat.products", "iter_two_product_certs_exact"),
    ("matroids.recognize_2level_matroid_slack", "prodmat.matroids", "recognize_2level_matroid_slack"),
    ("matroids.recognize_hypersimplex", "prodmat.matroids", "recognize_hypersimplex"),
    ("matroids.row_provenance", "prodmat.matroids", "MatroidRecognition.row_provenance"),
    ("matroids.expr_to_slack_with_bases", "prodmat.matroids", "expr_to_slack_with_bases"),
    ("polytopes.normalize_nonredundant_with_maps", "prodmat.polytopes", "normalize_nonredundant_with_maps"),
    ("cli.main", "prodmat.cli", "main"),
)

# Calls whose non-None result counts as a hit.
HIT_COUNTED = {"products.recognize_one_product", "products.recognize_two_product", "matroids.recognize_hypersimplex"}

OP = "op"  # the root span of one benchmark operation
MAX_SPANS = 1_000_000  # about 41 bytes each in the span arrays


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = [OP]
        self.name_ids = {OP: 0}
        self.open_depth = [0]
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.outermost = array("b")  # no enclosing span of the same name
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self.absent = set()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.open_depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.outermost.append(self.open_depth[nid] == 0)
        self.open_depth[nid] += 1
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.open_depth[self.span_name[idx]] -= 1

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open(0)

    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, metric: str, fn):
        nid = self._name_id(metric)
        counts = self.counts
        hit_key = metric + ".hits" if metric in HIT_COUNTED else None
        true_key = metric + ".true" if metric == "info.is_independent_exact" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hit_key and result is not None:
                counts[hit_key] += 1
            if true_key and result is True:
                counts[true_key] += 1
            return result

        return traced

    def _wrap_generator(self, metric: str, fn):
        nid = self._name_id(metric)
        yields = metric + ".yields"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[yields] += 1
                yield item

        return traced

    def _wrap_minimizer(self, metric: str, fn):
        """Also count oracle evaluations (while oracles keep a `calls` counter)."""
        timed = self._wrap_function(metric, fn)

        @functools.wraps(fn)
        def traced(oracle, *args, **kwargs):
            before = getattr(oracle, "calls", None)
            result = timed(oracle, *args, **kwargs)
            if before is None:
                self.absent.add("queyranne.oracle_calls (the oracle keeps no calls counter)")
            else:
                self.counts["queyranne.oracle_calls"] += oracle.calls - before
                self.counts["queyranne.sum_m3"] += oracle.m**3
            return result

        return traced

    def _wrap_matroid(self, metric: str, fn, stats):
        """Also count certificates tried and abandoned (while DECOMPOSITION_STATS exists)."""
        timed = self._wrap_function(metric, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = dict(stats)
            try:
                return timed(*args, **kwargs)
            finally:
                for key in ("certs_tried", "cert_backtracks"):
                    self.counts["matroids." + key] += stats[key] - before[key]

        return traced

    def _make_wrapper(self, metric: str, home, fn):
        if metric == "products.iter_two_product_certs_exact":
            return self._wrap_generator(metric, fn)
        if metric == "queyranne.minimize_symmetric_with_candidates":
            return self._wrap_minimizer(metric, fn)
        if metric == "matroids.recognize_2level_matroid_slack":
            stats = getattr(home, "DECOMPOSITION_STATS", None)
            if stats is not None:
                return self._wrap_matroid(metric, fn, stats)
            self.absent.add("matroids.DECOMPOSITION_STATS")
        return self._wrap_function(metric, fn)

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name in every prodmat module that binds it."""
        for metric, home_name, attr in TRACED:
            try:
                home = importlib.import_module(home_name)
            except ImportError:
                self.absent.add(f"{home_name}.{attr}")
                continue
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                fn = vars(cls).get(method) if isinstance(cls, type) else None
                if fn is None:
                    self.absent.add(f"{home_name}.{attr}")
                    continue
                self._set(cls, method, self._make_wrapper(metric, home, fn))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.absent.add(f"{home_name}.{attr}")
                continue
            wrapper = self._make_wrapper(metric, home, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "prodmat" or mod_name.startswith("prodmat.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction -----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: calls, total_s (outermost spans only) and self_s."""
        names = np.frombuffer(self.span_name, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        outer = np.frombuffer(self.outermost, dtype=np.int8).astype(bool)
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=np.where(outer, dur, 0.0), minlength=k)
        self_s = np.bincount(names, weights=dur - covered, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
