"""Span tracer for the benchmark's traced pass.

`Tracer` wraps, from outside the package, the public functions that
`run_experiment` resolves at call time, and restores every one on exit.
Each call becomes a span (name, layer, start, end, parent) kept in memory;
self time is a span's duration minus its children's. Peak memory per span
comes from tracemalloc, which numpy reports its buffers to. Probes read the
numerical-health counters from the wrapped functions' return values.

A wrapped name that the package no longer has is listed in
`Tracer.absent` and its layer reads zero.
"""

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

MIB = float(2 ** 20)


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _probe_build_system(tr, args, out):
    tr.minimum("rbf.sigma_ratio", float(out.sigma[-1] / out.sigma[0]))


def _probe_grad(tr, args, out):
    tr.maximum("scalar_ops.grad_mb", _nbytes(*out.G) / MIB)


def _probe_pencil(tr, args, out):
    size = _nbytes(out) if isinstance(out, np.ndarray) else \
        _nbytes(out.A, out.B, out.B_diag, out.range_basis)
    tr.maximum("vector_ops.pencil_mb", size / MIB)


def _probe_projection(tr, args, out):
    tr.add("tangent.degenerate", int(np.sum(out.degenerate)))
    tr.add("tangent.fallback", int(np.sum(out.fallback)))


def _probe_epsilon(tr, args, out):
    tr.maximum("dm.epsilon", float(out))


def _probe_gate(tr, args, out):
    tr.add("harness.gate_kept", len(out[0]))


def _probe_pair(tr, args, out):
    result, idx = args[0], out[1]
    compared = result.values[idx[idx >= 0]]
    if len(compared):
        tr.maximum("spectral.max_imag", float(np.max(np.abs(compared.imag))))


# (module, attribute path, layer, probe). The attribute is looked up where
# the caller resolves it, e.g. harness.build_system rather than
# rbf.build_system, so every call run_experiment makes is caught.
WRAPPED = [
    ("manifold_rbf.harness", "run_experiment", "harness.glue", None),
    ("manifold_rbf.harness", "Report.write", "harness.write", None),
    ("manifold_rbf.zoo", "sample_manifold", "zoo.sample", None),
    ("manifold_rbf.zoo", "analytic_projection", "zoo.projection", None),
    ("manifold_rbf.zoo", "scalar_eigen_truth", "zoo.truth", None),
    ("manifold_rbf.zoo", "vector_eigen_truth", "zoo.truth", None),
    ("manifold_rbf.tangent", "knn_indices", "tangent.knn", None),
    ("manifold_rbf.dm", "knn_indices", "tangent.knn", None),
    ("manifold_rbf.harness", "first_order_svd", "tangent.svd",
     _probe_projection),
    ("manifold_rbf.harness", "second_order_svd", "tangent.svd",
     _probe_projection),
    ("manifold_rbf.harness", "kde_density", "density.kde", None),
    ("manifold_rbf.harness", "build_system", "rbf.build_system",
     _probe_build_system),
    ("manifold_rbf.harness", "build_grad_matrices", "scalar_ops.grad",
     _probe_grad),
    ("manifold_rbf.harness", "laplace_beltrami_nonsymmetric",
     "scalar_ops.assemble", None),
    ("manifold_rbf.harness", "laplace_beltrami_symmetric",
     "scalar_ops.assemble", None),
    ("manifold_rbf.harness", "bochner", "vector_ops.assemble", _probe_pencil),
    ("manifold_rbf.harness", "hodge", "vector_ops.assemble", _probe_pencil),
    ("manifold_rbf.harness", "lichnerowicz", "vector_ops.assemble",
     _probe_pencil),
    ("manifold_rbf.vector_ops", "h_matrix", "vector_ops.block", None),
    ("manifold_rbf.vector_ops", "s_matrix", "vector_ops.block", None),
    ("manifold_rbf.vector_ops", "potimes_matrix", "vector_ops.block", None),
    ("manifold_rbf.vector_ops", "tangent_range_basis",
     "vector_ops.range_basis", None),
    ("manifold_rbf.harness", "solve_symmetric", "spectral.eigh", None),
    ("manifold_rbf.harness", "solve_nonsymmetric", "spectral.eig", None),
    ("manifold_rbf.harness", "align_eigenvectors_ols", "spectral.align",
     None),
    ("manifold_rbf.harness", "dm_spectrum", "dm.spectrum", None),
    ("manifold_rbf.dm", "autotune_epsilon", "dm.autotune", _probe_epsilon),
    ("manifold_rbf.harness", "alignment_gate", "harness.gate", _probe_gate),
    ("manifold_rbf.harness", "paired_mode_errors", "harness.pair",
     _probe_pair),
]


@dataclass
class Span:
    name: str
    layer: str
    parent: int          # index into Tracer.spans, -1 for a root
    start: float
    base: int            # traced bytes when the span opened
    peak: int            # traced high-water while it was open
    end: float = 0.0


class Tracer:
    """Context manager: wraps WRAPPED on entry, restores it on exit."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.counters = {}
        self._stack = []
        self._saved = []

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def minimum(self, key, value):
        self.counters[key] = min(self.counters.get(key, value), value)

    def __enter__(self):
        for module, path, layer, probe in WRAPPED:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for name in parents:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            name = f"{module.rsplit('.', 1)[-1]}.{path}"
            setattr(owner, attr, self._wrap(fn, name, layer, probe))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, layer, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                probe(self, args, out)
            return out
        return wrapper

    def _open(self, name, layer):
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else -1
        if parent >= 0:
            self.spans[parent].peak = max(self.spans[parent].peak, peak)
        tracemalloc.reset_peak()
        self.spans.append(Span(name=name, layer=layer, parent=parent,
                               start=time.perf_counter(), base=current,
                               peak=current))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        span = self.spans[idx]
        span.end = time.perf_counter()
        _current, peak = tracemalloc.get_traced_memory()
        span.peak = max(span.peak, peak)
        self._stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.peak = max(parent.peak, span.peak)
        tracemalloc.reset_peak()

    def self_times(self):
        """Per-span duration minus the duration of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_totals(self):
        """layer -> (self seconds, span count, peak MiB above span entry)."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            secs, calls, peak = out.get(span.layer, (0.0, 0, 0.0))
            out[span.layer] = (secs + own, calls + 1,
                               max(peak, (span.peak - span.base) / MIB))
        return out


# Every per-layer metric with its unit. The traced pass reports all of them,
# zero where the workload does not reach the layer.
PER_LAYER_UNITS = {
    "zoo.truth_s": "s", "zoo.truth_calls": "count", "zoo.sample_s": "s",
    "zoo.projection_s": "s", "zoo.peak_mb": "MiB",
    "tangent.knn_s": "s", "tangent.knn_calls": "count",
    "tangent.svd_s": "s", "tangent.degenerate": "count",
    "tangent.fallback": "count",
    "density.kde_s": "s",
    "rbf.build_system_s": "s", "rbf.rank_frac": "frac",
    "rbf.sigma_ratio": "ratio", "rbf.peak_mb": "MiB",
    "scalar_ops.grad_s": "s", "scalar_ops.assemble_s": "s",
    "scalar_ops.grad_mb": "MiB", "scalar_ops.peak_mb": "MiB",
    "vector_ops.assemble_s": "s", "vector_ops.range_basis_s": "s",
    "vector_ops.dense_blocks": "count", "vector_ops.pencil_mb": "MiB",
    "vector_ops.peak_mb": "MiB",
    "spectral.eigh_s": "s", "spectral.eig_s": "s", "spectral.align_s": "s",
    "spectral.solve_dim": "count", "spectral.useful_frac": "frac",
    "spectral.trivial_frac": "frac", "spectral.pollution_modes": "count",
    "spectral.max_imag": "1", "spectral.peak_mb": "MiB",
    "dm.spectrum_s": "s", "dm.autotune_s": "s", "dm.epsilon": "1",
    "dm.peak_mb": "MiB",
    "harness.gate_s": "s", "harness.gate_kept": "count",
    "harness.pair_s": "s", "harness.write_s": "s", "harness.glue_s": "s",
    "harness.warnings": "count",
    "bench.trace_overhead_s": "s", "bench.unaccounted_s": "s",
    "spectral.vec_digits.srbf": "digits", "spectral.vec_digits.best": "digits",
}


def per_layer_metrics(tracer, wpass):
    """The per-layer metrics of one traced pass, except the ones the parent
    derives: bench.trace_overhead_s and spectral.vec_digits.*."""
    totals = tracer.layer_totals()

    def secs(*layers):
        return sum((totals[name][0] for name in layers if name in totals),
                   0.0)

    def calls(*layers):
        return sum(totals[name][1] for name in layers if name in totals)

    def peak(module):
        return max([t[2] for name, t in totals.items()
                    if name.split(".")[0] == module], default=0.0)

    recs = [(s, s.record) for s in wpass.studies if s.record is not None]
    rbf = [rec.rank_L / rec.N for s, rec in recs if s.method != "DM"]
    spectra = [rec.result for _s, rec in recs]
    computed = sum(len(r.all_values) for r in spectra)
    compared = sum(len(rec.mode_errors) for _s, rec in recs
                   if rec.mode_errors is not None)
    c = tracer.counters
    out = {
        "zoo.truth_s": secs("zoo.truth"),
        "zoo.truth_calls": calls("zoo.truth"),
        "zoo.sample_s": secs("zoo.sample"),
        "zoo.projection_s": secs("zoo.projection"),
        "zoo.peak_mb": peak("zoo"),
        "tangent.knn_s": secs("tangent.knn"),
        "tangent.knn_calls": calls("tangent.knn"),
        "tangent.svd_s": secs("tangent.svd"),
        "tangent.degenerate": c.get("tangent.degenerate", 0),
        "tangent.fallback": c.get("tangent.fallback", 0),
        "density.kde_s": secs("density.kde"),
        "rbf.build_system_s": secs("rbf.build_system"),
        "rbf.rank_frac": sum(rbf) / len(rbf) if rbf else 0.0,
        "rbf.sigma_ratio": c.get("rbf.sigma_ratio", 0.0),
        "rbf.peak_mb": peak("rbf"),
        "scalar_ops.grad_s": secs("scalar_ops.grad"),
        "scalar_ops.assemble_s": secs("scalar_ops.assemble"),
        "scalar_ops.grad_mb": c.get("scalar_ops.grad_mb", 0.0),
        "scalar_ops.peak_mb": peak("scalar_ops"),
        "vector_ops.assemble_s": secs("vector_ops.assemble",
                                      "vector_ops.block"),
        "vector_ops.range_basis_s": secs("vector_ops.range_basis"),
        "vector_ops.dense_blocks": calls("vector_ops.block"),
        "vector_ops.pencil_mb": c.get("vector_ops.pencil_mb", 0.0),
        "vector_ops.peak_mb": peak("vector_ops"),
        "spectral.eigh_s": secs("spectral.eigh"),
        "spectral.eig_s": secs("spectral.eig"),
        "spectral.align_s": secs("spectral.align"),
        "spectral.solve_dim": computed,
        "spectral.useful_frac": compared / computed if computed else 0.0,
        "spectral.trivial_frac": sum(
            int(np.sum(np.abs(r.all_values) < r.trivial_cutoff))
            for r in spectra) / computed if computed else 0.0,
        "spectral.pollution_modes": sum(
            int(np.sum(r.all_values.real < -r.trivial_cutoff))
            for r in spectra),
        "spectral.max_imag": c.get("spectral.max_imag", 0.0),
        "spectral.peak_mb": peak("spectral"),
        "dm.spectrum_s": secs("dm.spectrum"),
        "dm.autotune_s": secs("dm.autotune"),
        "dm.epsilon": c.get("dm.epsilon", 0.0),
        "dm.peak_mb": peak("dm"),
        "harness.gate_s": secs("harness.gate"),
        "harness.gate_kept": c.get("harness.gate_kept", 0),
        "harness.pair_s": secs("harness.pair"),
        "harness.write_s": secs("harness.write"),
        "harness.glue_s": secs("harness.glue"),
        "harness.warnings": sum(s.warnings for s in wpass.studies),
        "bench.unaccounted_s": wpass.wall_s - sum(t[0]
                                                 for t in totals.values()),
    }
    return out
