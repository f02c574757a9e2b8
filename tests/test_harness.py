"""Experiment runner, error pairing, report emission, CLI round trips."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from manifold_rbf import cli, dm, harness, scalar_ops, zoo
from manifold_rbf.dm import dm_spectrum
from manifold_rbf.harness import (MEMORY_ENV_VAR, ExperimentConfig,
                                  alignment_gate, check_memory,
                                  estimate_run_bytes, fit_convergence_slope,
                                  memory_cap_bytes, paired_mode_errors,
                                  run_experiment)
from manifold_rbf.rbf import KernelModel, build_system
from manifold_rbf.spectral import SpectralResult, align_eigenvectors_ols
from manifold_rbf.vector_ops import (LAPLACIANS, stacked,
                                     tangent_range_basis)
from manifold_rbf.zoo import (EigenTruth, Ellipse, GeneralTorus, Sphere,
                              Torus, sample_manifold, vector_eigen_truth)


def make_config(**kw):
    base = dict(manifold=Torus(2.0), N_list=[144], method="NRBF",
                operator="LB", projection="Analytic",
                kernel=KernelModel("inverse_quadratic", 0.5),
                seeds=[0], compare_count=4,
                sample_mode="random_area")
    base.update(kw)
    return ExperimentConfig(**base)


def fake_result(values, trivial=None, vectors=None):
    values = np.asarray(values, dtype=float)
    if trivial is None:
        trivial = np.zeros(len(values), dtype=bool)
    trivial = np.asarray(trivial, dtype=bool)
    return SpectralResult(values=values, vectors=vectors,
                          ordering="by_magnitude",
                          rank_L=int(np.sum(~trivial)), all_values=values,
                          trivial=trivial, trivial_cutoff=0.0)


# -- configuration -------------------------------------------------------------


def test_config_round_trip():
    cfg = make_config(method="SRBF", projection="SecondOrder",
                      density="KDE", seeds=[0, 1], N_p=1600, K=40,
                      kernel=KernelModel("inverse_quadratic", 0.1))
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert back.manifold.kind == "torus"
    assert back.kernel.family == "inverse_quadratic"
    assert back.kernel.s == 0.1


def test_config_validation():
    make_config().validate()
    with pytest.raises(ValueError):
        make_config(method="FEM").validate()
    with pytest.raises(ValueError):
        make_config(operator="Dirac").validate()
    with pytest.raises(ValueError):
        make_config(method="DM", operator="Bochner",
                    manifold=Sphere()).validate()
    with pytest.raises(ValueError):
        make_config(operator="Covariant").validate()   # needs the ellipse
    with pytest.raises(ValueError):
        make_config(operator="Bochner").validate()     # no torus vector truth
    with pytest.raises(ValueError):
        make_config(N_list=[400], N_p=200).validate()


@pytest.mark.parametrize("kw,match", [
    (dict(method="DM", dm_epsilon=-0.1), "epsilon must be finite and positive"),
    (dict(method="DM", dm_epsilon=0.0), "epsilon must be finite and positive"),
    (dict(method="DM", dm_epsilon=np.nan),
     "epsilon must be finite and positive"),
    (dict(method="DM", dm_K=145), r"K_neighbors must lie in \(1, N\]"),
    (dict(method="DM", dm_K=0), r"K_neighbors must lie in \(1, N\]"),
    (dict(compare_count=144),
     "compare_count=144 must be smaller than the cloud size N=144"),
    (dict(method="DM", N_list=[144, 100], compare_count=120),
     "compare_count=120 must be smaller than the cloud size N=100"),
    (dict(compare_count=0), "compare_count must be at least 1"),
    (dict(projection="SecondOrder", K=0), "K must be at least 1"),
    (dict(projection="SecondOrder", K=3), r"K must exceed d\(d\+1\)/2 = 3"),
    (dict(projection="FirstOrder", K=2), r"K must be at least d\+1"),
    (dict(projection="FirstOrder", K=144),
     "K=144 must be smaller than the searched cloud size N=144"),
    (dict(projection="SecondOrder", N_list=[144, 100], K=120),
     "K=120 must be smaller than the searched cloud size N=100"),
    (dict(projection="FirstOrder", N_p=400, K=400),
     "K=400 must be smaller than the searched cloud size N=400"),
    # the torus truth resolves 24 values per Fourier mode: scoring more is
    # an error, not a silently wrong comparison
    (dict(N_list=[1000], compare_count=600),
     "count=600 reaches past the 24 resolved values"),
    # the first N points of a larger lattice are a band of the manifold
    (dict(sample_mode="grid", N_list=[400], N_p=1600,
          projection="SecondOrder"), "grid mode refuses N_p=1600 > N"),
    # an empty list used to run no study, or die on min() or runs[0]
    (dict(N_list=[]), "N_list must not be empty"),
    (dict(seeds=[]), "seeds must not be empty"),
    # a value of the wrong type is named, not a bare TypeError from inside
    # the run (some of them used to fail only after the truth was built)
    (dict(N_list=100), "N_list must be a list of integers"),
    (dict(seeds=3), "seeds must be a list of integers"),
    (dict(N_list=[100.5]), "N_list must be a list of integers"),
    (dict(N_list=[True, 100]), "N_list must be a list of integers"),
    (dict(compare_count=2.5), "compare_count must be an integer"),
    (dict(compare_count=None), "compare_count must be an integer"),
    (dict(N_p=150.0), "N_p must be an integer"),
    (dict(method="DM", dm_K=10.5), "dm_K must be an integer"),
    (dict(projection="FirstOrder", K="40"), "K must be an integer"),
    (dict(method="DM", dm_epsilon="0.1"), "dm_epsilon must be a number"),
    # a negative seed used to fail inside np.random.Philox, after the truth
    (dict(seeds=[0, -1]), "seeds must be non-negative integers"),
])
def test_bad_study_inputs_fail_before_any_work(kw, match, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the study sampled a cloud before validation")

    monkeypatch.setattr(zoo, "sample_manifold", no_sampling)
    with pytest.raises(ValueError, match=match):
        run_experiment(make_config(**kw))


@pytest.mark.parametrize("block,match", [
    ({"kernel": {"family": "gaussian", "s": True}},
     "kernel s must be a number"),
    ({"kernel": {"family": "gaussian", "s": "0.5"}},
     "kernel s must be a number"),
    ({"kernel": {"family": "gaussian", "s": 1.0, "pinv_tol": "1e-8"}},
     "kernel pinv_tol must be a number"),
    ({"manifold": {"kind": "ellipse", "a": True}}, "a must be a number"),
    ({"manifold": {"kind": "flat_torus", "d": True}},
     "d must be an integer"),
    ({"manifold": {"kind": "flat_torus", "m": True}},
     "m must be an integer"),
    ({"manifold": {"kind": "general_torus", "n": 21.0}},
     "n must be an integer"),
])
def test_config_blocks_refuse_values_that_are_no_numbers(block, match,
                                                         monkeypatch):
    # each of these used to be cast: "s": true ran s = 1, an ellipse
    # "a": true the unit circle
    def no_sampling(*args, **kwargs):
        raise AssertionError("the study sampled a cloud before validation")

    monkeypatch.setattr(zoo, "sample_manifold", no_sampling)
    cfg = {"manifold": {"kind": "sphere"}, "N_list": [50], **block}
    with pytest.raises(ValueError, match=match):
        run_experiment(ExperimentConfig.from_dict(cfg))


def test_unknown_sample_mode_fails_before_the_truth(monkeypatch):
    def no_truth(*args, **kwargs):
        raise AssertionError("the study built its truth before validation")

    monkeypatch.setattr(zoo, "scalar_eigen_truth", no_truth)
    cfg = ExperimentConfig.from_dict({"manifold": {"kind": "torus"},
                                      "N_list": [100],
                                      "sample_mode": "random"})
    with pytest.raises(ValueError, match="sample_mode must be one of"):
        run_experiment(cfg)


def test_config_files_refuse_unknown_keys():
    # a misspelled kernel key used to run with the default pinv_tol, and a
    # deleted study field raised a bare TypeError from __init__
    good = make_config().to_dict()
    kernel = dict(good["kernel"], pinv_tl=1e-4)
    with pytest.raises(ValueError, match=r"unknown kernel keys \['pinv_tl'\]"):
        KernelModel.from_dict(kernel)
    with pytest.raises(ValueError, match=r"unknown kernel keys \['pinv_tl'\]"):
        ExperimentConfig.from_dict(dict(good, kernel=kernel))
    with pytest.raises(ValueError, match=r"unknown config keys "
                       r"\['modes', 'truth_count'\]"):
        ExperimentConfig.from_dict(dict(good, modes=16, truth_count=40))
    # a key left out is named too, not a bare KeyError or TypeError
    with pytest.raises(ValueError, match=r"missing kernel keys \['family'\]"):
        KernelModel.from_dict({"s": 0.5})
    for key in ("manifold", "N_list"):
        cfg = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError,
                           match=rf"missing config keys \['{key}'\]"):
            ExperimentConfig.from_dict(cfg)


def test_cli_config_file_with_an_unknown_key_fails(tmp_path, capsys):
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(json.dumps({"kernel": {"family": "gaussian", "s": 1.0,
                                               "pinv_tl": 1e-4}}))
    refused(["spectrum", "--manifold", "ellipse", "--N", "50",
             "--config", cfg_file, "--out-dir", tmp_path / "out"],
            "pinv_tl", capsys)
    assert not (tmp_path / "out").exists()


def test_dm_computes_twice_the_compared_modes():
    # the DM mode count follows compare_count: 30 compared modes on the
    # torus need more than the 24 a fixed mode count used to give
    cfg = make_config(method="DM", N_list=[400], compare_count=30)
    rec = run_experiment(cfg).runs[0]
    assert rec.result.solve_dim == 60
    assert len(rec.mode_errors) == 30
    assert np.mean(rec.mode_errors) < 0.5


def test_memory_guard(monkeypatch):
    cfg = make_config(N_list=[512], manifold=Sphere())
    check_memory(cfg, 512, 512)                # desk scale fits the default
    monkeypatch.setenv(MEMORY_ENV_VAR, "0.001")
    with pytest.raises(RuntimeError, match="refusing run"):
        run_experiment(cfg)
    monkeypatch.delenv(MEMORY_ENV_VAR)
    big = make_config(manifold=Sphere(), operator="Bochner", N_list=[4096])
    with pytest.raises(RuntimeError, match="GiB"):
        check_memory(big, 4096, 4096)          # vector block matrix blows up


@pytest.mark.parametrize("value", ["nan", "NaN", "0", "-1", "-inf", "",
                                   "two", "2GiB"])
def test_memory_cap_rejects_a_bad_environment_value(value, monkeypatch):
    # NaN would compare false against every estimate and so switch the
    # guard off without a word
    monkeypatch.setenv(MEMORY_ENV_VAR, value)
    big = make_config(manifold=Sphere(), operator="Hodge", N_list=[10 ** 6])
    named = re.escape(f"{MEMORY_ENV_VAR}={value!r}")
    with pytest.raises(ValueError, match=named):
        check_memory(big, 10 ** 6, 10 ** 6)


@pytest.mark.parametrize("value,gib", [("inf", math.inf), ("0.5", 0.5),
                                       (" 3 ", 3.0)])
def test_memory_cap_reads_positive_values(value, gib, monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, value)
    assert memory_cap_bytes() == gib * 2 ** 30


# Words numpy.linalg's LAPACK calls hold outside tracemalloc, by the shape
# (m, n) of the input: the copy each gufunc takes plus its LAPACK work.
# eigh: the copy, the eigenvalues, syevd's 1 + 6n + 2n^2 work words and its
# 3 + 5n integers. eig: the copy, the real and the complex eigenvector
# buffers (n^2 and 2 n^2 words), four n-vectors of eigenvalues and geev's
# work, at most 2n + 2 * 64n for a block size up to 64. qr: mode "raw", the
# mode of every sizable QR of the package, factors a copy of the m x n
# input, with tau and at most 64k work words (k = min(m, n); at 3000 x 1500
# a fresh process's ru_maxrss rose 0.96-1.07 m n above the traced peak,
# by the size of the QR run first to load LAPACK); the reduced mode of the
# analytic frames adds a Q of 6 words to each stacked 3 x 2 frame, whose
# 130 work words cover it. cholesky: the copy it factors in place. solve:
# the copies of the n x n matrix and of at most n right-hand sides, with
# the pivots.
UNTRACED_LAPACK_WORDS = {
    "eigh": lambda m, n: n * n + n + (1 + 6 * n + 2 * n * n) + (3 + 5 * n),
    "eig": lambda m, n: 4 * n * n + 4 * n + 130 * n,
    "qr": lambda m, n: m * n + 65 * min(m, n),
    "cholesky": lambda m, n: n * n,
    "solve": lambda m, n: 2 * n * n + n,
}


def track_untraced_lapack(monkeypatch):
    """Route numpy.linalg's LAPACK calls above through a wrapper that records
    the largest untraced buffer set of any one call (a stacked call counts
    one set per matrix); returns its holder."""
    largest = [0]
    for name, words in UNTRACED_LAPACK_WORDS.items():
        def wrapped(a, *args, _solve=getattr(np.linalg, name), _words=words,
                    **kwargs):
            *stack, m, n = np.shape(a)
            largest[0] = max(largest[0], 8 * _words(m, n) * math.prod(stack))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    return largest


def traced_peak(stage, monkeypatch):
    """Bytes stage() needs at its peak: the traced peak plus the largest set
    of LAPACK buffers numpy.linalg holds outside tracemalloc in one call."""
    untraced = track_untraced_lapack(monkeypatch)
    tracemalloc.start()
    try:
        stage()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak + untraced[0]


@pytest.mark.parametrize("method,operator,spec", [
    ("SRBF", "LB", Torus(2.0)), ("NRBF", "LB", Torus(2.0)),
    ("SRBF", "LB", GeneralTorus(2.0, 21)), ("DM", "LB", Torus(2.0)),
    ("SRBF", "Hodge", Sphere()), ("NRBF", "Hodge", Sphere()),
    ("SRBF", "Bochner", Ellipse(2.0)), ("NRBF", "Covariant", Ellipse(2.0)),
], ids=lambda v: getattr(v, "kind", v))
def test_memory_estimate_bounds_traced_peak(method, operator, spec,
                                           monkeypatch):
    # the guard's estimate bounds the peak of operator build + solve
    N = 300
    cfg = make_config(manifold=spec, N_list=[N], method=method,
                      operator=operator, sample_mode="random_intrinsic")
    op_cloud, proj = harness.build_projection(cfg, N, 0)
    q = harness.build_density(cfg, op_cloud)
    if method == "DM":
        def stage():
            dm_spectrum(op_cloud, 24, K=18)
    elif operator == "Covariant":
        def stage():
            harness._run_covariant(cfg, op_cloud, proj)
    else:
        def stage():
            harness._solve_rbf(cfg, op_cloud, proj, q)
    assert traced_peak(stage, monkeypatch) <= estimate_run_bytes(cfg, N, N)


@pytest.mark.parametrize("method,spec,N", [
    pytest.param("SRBF", Torus(2.0), 200, id="SRBF-torus"),
    pytest.param("NRBF", Torus(2.0), 200, id="NRBF-torus"),
    pytest.param("SRBF", GeneralTorus(2.0, 21), 200,
                 id="SRBF-general_torus"),
    pytest.param("DM", Torus(2.0), 200, id="DM-torus"),
    # the truth's build outweighs the whole DM graph here
    pytest.param("DM", Torus(2.0), 100, id="DM-torus-100"),
])
def test_memory_estimate_bounds_whole_run_peak(method, spec, N, monkeypatch):
    # at small N the N-independent buffers (truth, KNN) weigh most; the
    # whole run, its truth built afresh, still fits the estimate
    cfg = make_config(manifold=spec, N_list=[N], method=method,
                      sample_mode="random_intrinsic")
    peak = traced_peak(lambda: run_experiment(cfg), monkeypatch)
    assert peak <= estimate_run_bytes(cfg, N, N)


@pytest.mark.parametrize("method,operator,spec", [
    ("SRBF", "LB", Torus(2.0)), ("NRBF", "LB", Torus(2.0)),
    ("SRBF", "LB", GeneralTorus(2.0, 21)), ("SRBF", "Hodge", Sphere()),
    ("NRBF", "Hodge", Sphere()), ("SRBF", "Bochner", Ellipse(2.0)),
    ("NRBF", "Covariant", Ellipse(2.0)),
], ids=lambda v: getattr(v, "kind", v))
def test_memory_estimate_at_the_real_rank_bounds_traced_peak(
        method, operator, spec, monkeypatch):
    # the second check of the guard uses rank_L; its estimate must still
    # bound the peak, so a run it admits fits
    peak, estimate = real_rank_peak(method, operator, spec, 300, monkeypatch)
    assert peak <= estimate


def test_memory_estimate_at_the_real_rank_bounds_a_general_torus_vector_run(
        monkeypatch):
    # n = 21 makes the trial dimension p = 21 r larger than the d N frame
    # rows: the run traced 72.7 MiB against an estimate of 45.3 MiB while
    # the NRBF factor stacked p x p blocks; it now traces 10.2 MiB, plus
    # 3.3 MiB in LAPACK, against 14.6 MiB (measured)
    peak, estimate = real_rank_peak("NRBF", "Hodge", GeneralTorus(2.0, 21),
                                    100, monkeypatch)
    assert peak <= estimate


def real_rank_peak(method, operator, spec, N, monkeypatch):
    """(traced_peak, estimate_run_bytes at rank_L) of the operator build and
    solve of one run at cloud size N."""
    cfg = make_config(manifold=spec, N_list=[N], method=method,
                      operator=operator, sample_mode="random_intrinsic")
    op_cloud, proj = harness.build_projection(cfg, N, 0)
    q = harness.build_density(cfg, op_cloud)
    rank = build_system(op_cloud, cfg.kernel).rank_L
    if operator == "Covariant":
        def stage():
            harness._run_covariant(cfg, op_cloud, proj)
    else:
        def stage():
            harness._solve_rbf(cfg, op_cloud, proj, q)
    return traced_peak(stage, monkeypatch), estimate_run_bytes(cfg, N, rank)


@pytest.mark.parametrize("method,operator,spec", [
    ("SRBF", "Hodge", Sphere()), ("NRBF", "Hodge", Sphere()),
    ("NRBF", "Bochner", Ellipse(2.0)),
], ids=lambda v: getattr(v, "kind", v))
def test_memory_estimate_bounds_a_full_rank_vector_run(method, operator, spec,
                                                      monkeypatch):
    # a sharp kernel keeps every eigenvector of Phi, r = N: the worst case
    # the estimate assumes before Phi is factored
    N = 150
    cfg = make_config(manifold=spec, N_list=[N], method=method,
                      operator=operator, sample_mode="random_intrinsic",
                      kernel=KernelModel("inverse_quadratic", 8.0))
    op_cloud, proj = harness.build_projection(cfg, N, 0)
    q = harness.build_density(cfg, op_cloud)
    assert build_system(op_cloud, cfg.kernel).rank_L >= 0.98 * N
    peak = traced_peak(lambda: harness._solve_rbf(cfg, op_cloud, proj, q),
                       monkeypatch)
    assert peak <= estimate_run_bytes(cfg, N, N)


def hodge_guard_case():
    """An NRBF Hodge study on the sphere, whose rank_L is about N / 3, with
    its rank; the cloud is the one run_experiment samples."""
    N = 300
    cfg = make_config(manifold=Sphere(), operator="Hodge", N_list=[N])
    op_cloud, _proj = harness.build_projection(cfg, N, 0)
    return cfg, N, build_system(op_cloud, cfg.kernel).rank_L


def set_cap_between(low, high, monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, repr(math.sqrt(low * high) / 2 ** 30))


def test_memory_guard_admits_a_run_that_fits_at_its_real_rank(monkeypatch):
    cfg, N, rank = hodge_guard_case()
    assert rank < N / 2
    fits = estimate_run_bytes(cfg, N, rank)
    worst = estimate_run_bytes(cfg, N, N)
    assert fits < worst / 2
    set_cap_between(fits, worst, monkeypatch)
    with pytest.raises(RuntimeError, match="refusing run"):
        check_memory(cfg, N, N)                # r = N does not fit the cap
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # NRBF pollution
        report = run_experiment(cfg)
    assert report.runs[0].rank_L == rank


def test_memory_guard_refuses_at_the_real_rank_before_the_factors(
        monkeypatch):
    cfg, N, rank = hodge_guard_case()
    floor = estimate_run_bytes(cfg, N, rank=0)
    need = estimate_run_bytes(cfg, N, rank)
    assert floor < need
    set_cap_between(floor, need, monkeypatch)
    built = []

    def counting_build_system(*args):
        built.append(True)
        return build_system(*args)

    def no_factors(*args):
        raise AssertionError("derivative factors built past the guard")

    monkeypatch.setattr(harness, "build_system", counting_build_system)
    monkeypatch.setattr(scalar_ops, "derivative_blocks", no_factors)
    with pytest.raises(RuntimeError, match=f"refusing run at N={N}"):
        run_experiment(cfg)
    assert built == [True]                     # Phi fit; the rank did not


def test_memory_guard_admits_large_sparse_dm(monkeypatch):
    monkeypatch.delenv(MEMORY_ENV_VAR, raising=False)
    N = 20000
    check_memory(make_config(method="DM", N_list=[N]), N, 0)


def test_dm_run_builds_no_tangent_field(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the DM study read a tangent field")

    for name in ("first_order_svd", "second_order_svd"):
        monkeypatch.setattr(harness, name, forbidden)
    monkeypatch.setattr(harness.zoo, "analytic_projection", forbidden)
    for projection in ("SecondOrder", "Analytic"):
        cfg = make_config(method="DM", N_list=[300], projection=projection)
        rec = run_experiment(cfg).runs[0]
        assert rec.mode_errors is not None
        assert rec.result.solve_dim == 2 * cfg.compare_count


def test_nrbf_run_builds_no_density(monkeypatch):
    # the non-symmetric forms never read q: a KDE or analytic density was
    # built for nothing
    want = run_experiment(make_config(N_list=[100])).runs[0]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the NRBF study built a density")

    monkeypatch.setattr(harness, "kde_density", forbidden)
    monkeypatch.setattr(harness.zoo, "sampling_density", forbidden)
    for density in ("KDE", "Analytic"):
        rec = run_experiment(make_config(N_list=[100],
                                         density=density)).runs[0]
        assert np.array_equal(rec.result.values, want.result.values)
        assert np.array_equal(rec.mode_errors, want.mode_errors)


def test_dm_study_builds_its_graph_with_dm_k_neighbours(monkeypatch):
    calls = []
    real = dm.knn_indices

    def counting(points, K, **kwargs):
        calls.append(K)
        return real(points, K, **kwargs)

    monkeypatch.setattr(dm, "knn_indices", counting)
    run_experiment(make_config(method="DM", N_list=[300], dm_K=18))
    assert calls == [18]


# -- slope fitting -------------------------------------------------------------


def test_fit_convergence_slope():
    sizes = [512, 1024, 2048, 4096]
    assert fit_convergence_slope([(n, 3.7 / n) for n in sizes]) \
        == pytest.approx(-1.0, abs=1e-10)
    assert fit_convergence_slope([(n, 2.0 / np.sqrt(n)) for n in sizes]) \
        == pytest.approx(-0.5, abs=1e-10)
    with pytest.raises(ValueError):
        fit_convergence_slope([(512, 0.1), (1024, 0.05)])
    with pytest.raises(ValueError):
        fit_convergence_slope([(512, 0.1), (1024, 0.0), (2048, 0.01)])


# -- eigenvalue pairing --------------------------------------------------------


def test_pairing_subthreshold_mode_takes_zero_slot():
    errs, idx = paired_mode_errors(fake_result([0.3, 1.05, 2.2]),
                                   [0.0, 1.0, 2.0])
    assert np.allclose(errs, [0.3, 0.05, 0.1])
    assert list(idx) == [0, 1, 2]


def test_pairing_truncation_zero_fills_slot():
    errs, idx = paired_mode_errors(fake_result([1.05, 2.2]),
                                   [0.0, 1.0, 2.0])
    assert np.allclose(errs, [0.0, 0.05, 0.1])
    assert list(idx) == [-1, 0, 1]


def test_pairing_relative_denominator_clamped_at_one():
    errs, _ = paired_mode_errors(fake_result([0.6, 2.2]), [0.5, 2.0])
    assert np.allclose(errs, [0.1, 0.1])


def test_pairing_skips_trivial_and_respects_candidates():
    errs, idx = paired_mode_errors(
        fake_result([1e-16, 1.0], trivial=[True, False]), [1.0])
    assert np.allclose(errs, [0.0]) and list(idx) == [1]
    errs, idx = paired_mode_errors(fake_result([9.9, 1.05, 2.2]),
                                   [0.0, 1.0, 2.0], candidates=[1, 2])
    assert np.allclose(errs, [0.0, 0.05, 0.1])
    assert list(idx) == [-1, 1, 2]


def test_pairing_compares_complex_modes_by_magnitude():
    values = np.array([1.0 + 0.1j, 2.0 - 0.2j])
    res = SpectralResult(values=values, vectors=None,
                         ordering="by_magnitude", rank_L=2,
                         all_values=values, trivial=np.zeros(2, dtype=bool))
    errs, _ = paired_mode_errors(res, [1.0, 2.0])
    assert np.allclose(errs, [abs(1.0 + 0.1j) - 1.0,
                              (abs(2.0 - 0.2j) - 2.0) / 2.0])


def test_pairing_insufficient_modes():
    with pytest.raises(ValueError):
        paired_mode_errors(fake_result([1.05]), [0.0, 1.0, 2.0])


# -- truth basis and mode gating -----------------------------------------------


def z_then_x(cloud):
    yield cloud.points[:, 2]
    yield cloud.points[:, 0]


def test_truth_basis_shapes():
    cloud = sample_manifold(Sphere(), 200, seed=0, mode="random_area")
    scalar = EigenTruth(values=[(2.0, 2)], columns=z_then_x, kind="scalar")
    F = scalar.basis(cloud, 2)
    assert F.shape == (200, 2)
    assert np.allclose(F[:, 0], cloud.points[:, 2])
    vec = vector_eigen_truth(Sphere(), "Bochner", 1)
    B = vec.basis(cloud, 3)
    assert B.shape == (600, 3)
    assert np.all(np.linalg.norm(B, axis=0) > 0)
    # coordinate-stacked rows: column k is (U^1; U^2; U^3) of field k
    fields = list(vec.columns(cloud))[:3]
    assert np.array_equal(B, np.stack([f.T.reshape(-1) for f in fields],
                                      axis=1))


def test_alignment_gate_keeps_span_members():
    rng = np.random.default_rng(0)
    cloud = sample_manifold(Sphere(), 200, seed=0, mode="random_area")
    truth = EigenTruth(values=[(2.0, 2)], columns=z_then_x, kind="scalar")
    F = truth.basis(cloud, 2)
    vectors = np.column_stack([F[:, 0], rng.standard_normal(200),
                               0.5 * F[:, 0] + F[:, 1]])
    res = fake_result([2.01, 5.0, 2.02], vectors=vectors)
    kept, resid = alignment_gate(res, F, np.zeros((2, 2)))
    assert list(kept) == [0, 2]
    assert resid[0] <= 1e-10 and resid[2] <= 1e-10
    assert resid[1] > 0.9


def per_mode_gate(result, F, W):
    """alignment_gate's window and residuals, one mode at a time, of the
    modes lifted by W against the ambient truth columns F."""
    window = np.flatnonzero(~result.trivial)[:harness._gate_window(F.shape[1])]
    gram_inv = np.linalg.pinv(F.T @ F)
    resid = []
    for i in window:
        vec = W @ result.vectors[:, i]
        parts = np.column_stack([vec.real, vec.imag]) \
            if np.iscomplexobj(vec) else vec[:, None]
        beta = gram_inv @ (F.T @ parts)
        resid.append(np.linalg.norm(F @ beta - parts) / np.linalg.norm(parts))
    return window, np.array(resid)


@pytest.mark.parametrize("method", ["SRBF", "NRBF"])
def test_alignment_gate_scores_the_window_as_each_mode_alone(method):
    # one product over the window, on frame coordinates, gives every mode
    # the residual of its own ambient columns, the real and imaginary parts
    # of an NRBF mode together
    N = 300
    cfg = make_config(manifold=Sphere(), operator="Hodge", method=method,
                      N_list=[N], compare_count=6)
    op_cloud, proj = harness.build_projection(cfg, N, 0)
    q = harness.build_density(cfg, op_cloud)
    result, _rank = harness._solve_rbf(cfg, op_cloud, proj, q)
    assert np.iscomplexobj(result.vectors) == (method == "NRBF")
    F = zoo.study_truth(cfg.manifold, cfg.operator,
                        cfg.compare_count).basis(op_cloud, cfg.compare_count)
    kept, resid = alignment_gate(result, *harness.frame_truth(F, proj))
    window, want = per_mode_gate(result, F, tangent_range_basis(proj))
    assert 0 < len(kept) < len(window)
    assert np.abs(resid - want).max() <= 1e-12
    assert np.array_equal(kept, window[want <= harness.GATE_CAP])


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython < 3.11 keeps call arguments alive on "
                           "the caller's stack")
def test_srbf_solve_frees_the_unreduced_form_before_its_eigensolve(
        monkeypatch):
    # _solve_rbf hands the pencil over: by the eigensolve of the reduced
    # form, nothing holds the form laplace_beltrami_symmetric returned, nor
    # the Cholesky factor that reduced it; the form is summed over row
    # blocks, so no whole derivative factor is built
    N = 200
    cfg = make_config(method="SRBF", N_list=[N])
    op_cloud, proj = harness.build_projection(cfg, N, 0)
    q = harness.build_density(cfg, op_cloud)
    build, eigh = harness.laplace_beltrami_symmetric, np.linalg.eigh
    cholesky = np.linalg.cholesky
    forms, factors, alive = [], [], []

    def tracked_form(system, proj, q):
        pair = build(system, proj, q)
        forms.append(weakref.ref(pair.A))
        return pair

    def tracked_cholesky(a, *args, **kwargs):
        C = cholesky(a, *args, **kwargs)
        factors.append(weakref.ref(C))
        return C

    def checked_eigh(a, *args, **kwargs):
        if forms:                   # Phi's eigh comes before any form
            alive.append([ref() is not None for ref in forms + factors])
        return eigh(a, *args, **kwargs)

    def no_factors(*args, **kwargs):
        raise AssertionError("SRBF LB built the whole derivative factors")

    monkeypatch.setattr(harness, "laplace_beltrami_symmetric", tracked_form)
    monkeypatch.setattr(harness, "build_grad_matrices", no_factors)
    monkeypatch.setattr(np.linalg, "cholesky", tracked_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", checked_eigh)
    result, rank = harness._solve_rbf(cfg, op_cloud, proj, q)
    assert len(factors) == 1
    assert alive == [[False, False]]
    assert result.solve_dim == rank


@pytest.mark.parametrize("method", ["SRBF", "NRBF"])
def test_frame_scores_equal_the_ambient_scores_under_estimated_frames(method):
    # second-order frames leave 1% of the truth columns normal to them: the
    # frame-coordinate scores carry that part and equal the ambient formulas
    # on the lifted modes (measured: 2.0e-15 for the gate, 1.4e-16 for the
    # vector errors; without the normal part they move by 2.6e-4 or more)
    N = 400
    cfg = make_config(manifold=Sphere(), operator="Hodge", method=method,
                      N_list=[N], projection="SecondOrder", compare_count=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # NRBF pollution
        rec = run_experiment(cfg).runs[0]
    op_cloud, proj = harness.build_projection(cfg, N, 0)
    F = zoo.study_truth(cfg.manifold, cfg.operator,
                        cfg.compare_count).basis(op_cloud, cfg.compare_count)
    W = tangent_range_basis(proj)
    G, normal = harness.frame_truth(F, proj)
    assert np.linalg.norm(F - W @ G) > 1e-3 * np.linalg.norm(F)
    result = rec.result
    window, want = per_mode_gate(result, F, W)
    kept, resid = alignment_gate(result, G, normal)
    assert np.abs(resid - want).max() <= 2e-14
    assert np.abs(alignment_gate(result, G, 0 * normal)[1] - want).max() > 1e-5
    assert np.array_equal(kept, window[want <= harness.GATE_CAP])
    _errors, idx = paired_mode_errors(result, rec.truth_vals,
                                      candidates=kept)
    assert np.all(idx >= 0)
    ambient = align_eigenvectors_ols(F, W @ result.vectors[:, idx])
    assert np.abs(rec.vec_errors - ambient).max() <= 2e-14
    assert np.abs(align_eigenvectors_ols(G, result.vectors[:, idx])
                  - ambient).max() > 1e-5


@pytest.mark.parametrize("kind", ["sphere", "ellipse"])
def test_truth_bases_lie_in_the_analytic_frames(kind):
    # under analytic frames the normal part of a tangent truth is rounding
    # (measured: 3.4e-16 and 3.1e-16 of the basis)
    if kind == "sphere":
        cloud = sample_manifold(Sphere(), 300, seed=0, mode="random_area")
        F = zoo.study_truth(Sphere(), "Hodge", 12).basis(cloud, 12)
    else:
        cloud = sample_manifold(Ellipse(2.0), 300, seed=0)
        F = np.column_stack([stacked(field) for field in
                             zoo.ellipse_covariant_truth(cloud)])
    W = tangent_range_basis(zoo.analytic_projection(cloud))
    assert np.linalg.norm(F - W @ (W.T @ F)) <= 1e-13 * np.linalg.norm(F)


def test_nrbf_pollution_warning_reads_the_whole_spectrum():
    # seed 1 of the torus with second-order frames at N = 400 has one mode
    # in the left half plane, past the window of lifted modes
    cfg = make_config(N_list=[400], seeds=[1], projection="SecondOrder",
                      compare_count=12)
    with pytest.warns(RuntimeWarning, match="left half"):
        result = run_experiment(cfg).runs[0].result
    left = np.flatnonzero(result.all_values.real < -result.trivial_cutoff)
    assert len(left) == 1
    assert left[0] >= result.structural_zeros + len(result.values)


def test_nrbf_spectra_are_polluted_and_srbf_spectra_real():
    # the paper's claim for the two forms: on the torus with second-order
    # frames at N = 400, NRBF LB put 5 / 1 / 3 / 3 modes in the left half
    # plane at seeds 0-3, and 0.61-1.68 was the largest |Im lambda| among
    # its first 16 nontrivial modes; the SRBF pencil of the same cloud has
    # real, non-negative values
    for seed in range(4):
        for method in ("NRBF", "SRBF"):
            cfg = make_config(method=method, N_list=[400], seeds=[seed],
                              projection="SecondOrder", density="KDE")
            cloud, proj = harness.build_projection(cfg, 400, seed)
            q = harness.build_density(cfg, cloud) if method == "SRBF" \
                else None
            result, _rank = harness._solve_rbf(cfg, cloud, proj, q)
            values, cutoff = result.all_values, result.trivial_cutoff
            left = np.sum(values.real < -cutoff)
            imag = np.abs(values[np.abs(values) >= cutoff][:16].imag).max()
            if method == "NRBF":
                assert left >= 1 and imag >= 0.3
            else:
                assert left == 0 and imag == 0.0


def test_vector_run_evaluates_the_truth_once(monkeypatch):
    # the gate and the OLS alignment score from one evaluated basis
    calls = []
    real = zoo.vector_eigen_truth

    def counting(spec, operator, count):
        truth = real(spec, operator, count)

        def columns(cloud):
            calls.append(cloud.N)
            return truth.columns(cloud)

        return EigenTruth(truth.values, columns, truth.kind)

    monkeypatch.setattr(zoo, "vector_eigen_truth", counting)
    cfg = make_config(manifold=Sphere(), operator="Hodge", N_list=[200],
                      seeds=[0, 1], compare_count=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # NRBF pollution
        rep = run_experiment(cfg)
    assert calls == [200, 200]
    for rec in rep.runs:
        assert np.all(np.isfinite(rec.vec_errors))


# -- full runs -----------------------------------------------------------------


def test_report_files_deterministic(tmp_path):
    out = []
    for tag in ("first", "second"):
        rep = run_experiment(make_config())
        d = tmp_path / tag
        rep.write(d, prefix="run")
        out.append(d)
    names = sorted(p.name for p in out[0].iterdir())
    assert "run_N144_seed0_spectrum.csv" in names
    assert "run_N144_seed0_alignment.csv" in names
    assert "run_convergence.csv" in names
    for name in names:
        if name.endswith(".csv"):
            assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes()
    text = (out[0] / "run_N144_seed0_spectrum.csv").read_text()
    assert "pinv_tol" in text          # resolved config echoed into the CSV
    report = json.loads((out[0] / "run_report.json").read_text())
    assert report["config"]["kernel"]["s"] == 0.5
    assert report["convergence"][0][0] == 144


def test_run_outputs_explain_the_trivial_cluster(tmp_path):
    # NRBF LB is solved on the rank_L range of Phi^+: the other N - rank_L
    # modes are exact zeros, counted in the run log and the CSV header
    rep = run_experiment(make_config(manifold=Sphere()))
    rep.write(tmp_path, prefix="run")
    log = json.loads((tmp_path / "run_runlog.jsonl").read_text())
    assert log["solve_dim"] == log["rank_L"] < 144
    assert log["structural_zeros"] == 144 - log["rank_L"]
    path = tmp_path / "run_N144_seed0_spectrum.csv"
    assert (f"structural_zeros={log['structural_zeros']} "
            f"solve_dim={log['solve_dim']}") in path.read_text()
    data = np.loadtxt(path, delimiter=",")
    assert len(data) == 144
    assert np.sum(data[:, 4]) >= log["structural_zeros"]


def test_larger_interpolation_cloud_improves_modes():
    errs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for Np in (400, 1600):
            cfg = make_config(N_list=[400], projection="SecondOrder",
                              N_p=Np)
            errs[Np] = run_experiment(cfg).runs[0].mode_errors
    assert np.all(errs[1600] < errs[400])


def test_covariant_demo_converges_faster_on_second_order_frames():
    # the paper's claim for the local SVD: second-order frames make the
    # covariant derivative converge faster than first-order ones. Seed 0
    # gives errors 0.53/0.31/0.14 (slope -0.98) with first-order frames and
    # 0.076/0.025/0.0074 (slope -1.67) with second-order ones; seeds 1 and
    # 2+3 gave slopes -0.84/-1.98 and -0.76/-1.65.
    reports = {}
    for projection in ("FirstOrder", "SecondOrder"):
        cfg = make_config(manifold=Ellipse(2.0), N_list=[100, 200, 400],
                          operator="Covariant", projection=projection,
                          kernel=KernelModel("gaussian", 1.5), K=10,
                          sample_mode="random_intrinsic")
        reports[projection] = run_experiment(cfg)
    first, second = reports["FirstOrder"], reports["SecondOrder"]
    for report in (first, second):
        assert [N for N, _err in report.convergence] == [100, 200, 400]
        assert all(rec.field_error is not None and rec.result is None
                   for rec in report.runs)
        assert report.slope is not None
    assert all(err2 < err1 for (_n, err1), (_m, err2)
               in zip(first.convergence, second.convergence))
    assert second.slope < -1.4 < first.slope


# -- command line --------------------------------------------------------------


def refused(argv, match, capsys):
    """Run the command line on argv, which it must refuse: exit code 2 and
    one stderr line, `manifold-rbf: error: ` and a message that match
    finds, with no traceback. Returns what went to stdout."""
    assert cli.main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("manifold-rbf: error: ") and err.count("\n") == 1
    assert re.search(match, err) and "Traceback" not in err
    return out


def run_cli(*args, env=None):
    """stdout of the command line run with args in a child process, whose
    environment adds env."""
    proc = subprocess.run([sys.executable, "-m", "manifold_rbf.cli",
                           *[str(a) for a in args]],
                          capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_sample(tmp_path):
    out = tmp_path / "pts.csv"
    stdout = run_cli("sample", "--manifold", "ellipse", "--a", "1.0",
                     "--N", 40, "--seed", 0, "--out", out)
    assert "wrote 40 points" in stdout
    text = out.read_text()
    assert "schema=points-v1" in text
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (40, 3)       # x1, x2, theta1
    assert np.allclose(np.hypot(data[:, 0], data[:, 1]), 1.0, atol=1e-12)


def test_cli_truth(tmp_path):
    out = tmp_path / "truth.csv"
    run_cli("truth", "--manifold", "torus", "--a", "2.0", "--count", 5,
            "--out", out)
    text = out.read_text()
    assert text.startswith("# schema=truth-v2\n")
    assert "# operator=LB\n# eigenvalue,multiplicity\n" in text
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (5, 2)
    assert data[0, 0] == 0.0 and data[0, 1] >= 1


def test_cli_rejects_counts_it_cannot_honour(tmp_path, capsys):
    # a tangent K of 0 is no request for the default, 3 cannot fit the
    # sphere's second-order frame, and 60 neighbours cannot be found among
    # 50 points
    argv = ["spectrum", "--manifold", "sphere", "--N", "50",
            "--out-dir", tmp_path]
    refused([*argv, "--projection", "SecondOrder", "--K", "0"],
            "K must be at least 1", capsys)
    refused([*argv, "--projection", "SecondOrder", "--K", "3"],
            r"K must exceed d\(d\+1\)/2 = 3", capsys)
    refused([*argv, "--projection", "FirstOrder", "--K", "60"],
            "K=60 must be smaller than the searched cloud size N=50", capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("operator", ["LB", *LAPLACIANS])
def test_cli_sphere_truth_prints_its_default_count(operator, capsys):
    # the sphere truth used to stop at l = 3: 4 LB values, 3 Hodge ones
    cli.main(["truth", "--manifold", "sphere", "--operator", operator])
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")]
    assert len(rows) == 20
    want = zoo.study_truth(Sphere(), operator, 20).values
    assert rows == [f"{lam:.17g},{mult}" for lam, mult in want]


@pytest.mark.parametrize("kind", ["sphere", "flat-torus", "torus"])
def test_cli_truth_refuses_a_count_below_one(kind, capsys):
    # the sphere and the flat torus used to print an empty table
    for count in ("0", "-2"):
        assert refused(["truth", "--manifold", kind, "--count", count],
                       f"count={count} must be at least 1", capsys) == ""


def test_cli_tangent(tmp_path):
    out = tmp_path / "proj.npz"
    stdout = run_cli("tangent", "--manifold", "torus", "--a", "2.0",
                     "--N", 150, "--Np", 600, "--K", 30, "--out", out)
    assert out.exists()
    assert "mean_frob" in stdout


def test_cli_tangent_rejects_a_sample_below_the_operator_cloud(tmp_path,
                                                              capsys):
    # spectrum refuses N_p < N; tangent must not write N_p rows instead
    refused(["tangent", "--manifold", "torus", "--a", "2.0", "--N", "200",
             "--Np", "100", "--K", "30", "--out", tmp_path / "proj.npz"],
            "N_p must be at least the operator cloud size", capsys)
    assert list(tmp_path.iterdir()) == []


def test_cli_tangent_checks_k_before_sampling(tmp_path, monkeypatch,
                                              capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("tangent sampled a cloud before validation")

    monkeypatch.setattr(zoo, "sample_manifold", no_sampling)
    refused(["tangent", "--manifold", "sphere", "--N", "50", "--K", "60",
             "--order", "1", "--out", tmp_path / "proj.npz"],
            "K=60 must be smaller than the searched cloud size N=50", capsys)


@pytest.mark.parametrize("command", ["sample", "tangent"])
def test_cli_refuses_a_negative_seed(command, tmp_path, capsys):
    # a negative seed used to end in np.random.Philox's own error
    refused([command, "--manifold", "sphere", "--N", "60", "--seed", "-1",
             "--out", tmp_path / "out.csv"],
            "seed must be a non-negative integer", capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,match", [
    pytest.param(["sample", "--N", "0", "--out", "p.csv"],
                 "N must be >= 1", id="sample"),
    pytest.param(["tangent", "--N", "50", "--K", "0", "--out", "p.csv"],
                 "K must be at least 1", id="tangent"),
    pytest.param(["spectrum", "--N", "50", "--manifold", "torus",
                  "--operator", "Hodge", "--out-dir", "out"],
                 "vector operators run where vector truth", id="spectrum"),
    pytest.param(["converge", "--N-list", "50,60", "--compare-count", "60",
                  "--out-dir", "out"], "compare_count=60 must be smaller",
                 id="converge"),
    pytest.param(["compare-dm", "--N", "200", "--method", "NRBF",
                  "--out-dir", "out"], "compare-dm compares SRBF LB with DM",
                 id="compare-dm"),
    pytest.param(["truth", "--count", "0"], "count=0 must be at least 1",
                 id="truth"),
    pytest.param(["spectrum", "--N", "50", "--config", "missing.json",
                  "--out-dir", "out"], "No such file or directory",
                 id="spectrum-config-file"),
    pytest.param(["sample", "--N", "50", "--out", "missing/x.csv"],
                 "No such file or directory", id="sample-out-file"),
    pytest.param(["converge", "--N-list", "40,,80", "--out-dir", "out"],
                 "--N-list", id="converge-N-list"),
])
def test_every_subcommand_refuses_in_one_line(argv, match, tmp_path,
                                              monkeypatch, capsys):
    # a refused input used to end in a traceback and exit status 1
    monkeypatch.chdir(tmp_path)
    if "--manifold" not in argv:
        argv = [*argv, "--manifold", "sphere"]
    assert refused(argv, match, capsys) == ""
    assert list(tmp_path.iterdir()) == []


def test_a_refused_run_exits_with_status_two(tmp_path):
    # the memory guard's refusal, through the installed entry point's
    # path: one stderr line and status 2; the library raises MemoryRefusal
    proc = subprocess.run(
        [sys.executable, "-m", "manifold_rbf.cli", "spectrum",
         "--manifold", "sphere", "--N", "400", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, MEMORY_ENV_VAR: "0.001"})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("manifold-rbf: error: refusing run at "
                                  "N=400")
    assert proc.stderr.count("\n") == 1
    assert issubclass(harness.MemoryRefusal, RuntimeError)


def test_cli_spectrum_and_config_file(tmp_path):
    cfg_file = tmp_path / "extra.json"
    cfg_file.write_text(json.dumps({"compare_count": 5}))
    stdout = run_cli("spectrum", "--manifold", "ellipse", "--a", "1.0",
                     "--N", 100, "--kernel", "inverse_quadratic",
                     "--s", 1.5, "--K", 9,
                     "--config", cfg_file, "--out-dir", tmp_path,
                     "--prefix", "demo")
    assert "leading eigenvalues:" in stdout
    assert (tmp_path / "demo_N100_seed0_spectrum.csv").exists()
    report = json.loads((tmp_path / "demo_report.json").read_text())
    assert report["config"]["compare_count"] == 5
    assert report["config"]["K"] == 9
    assert report["config"]["kernel"]["family"] == "inverse_quadratic"


def test_cli_config_file_entries_survive_flag_defaults(tmp_path):
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(json.dumps({
        "manifold": {"kind": "ellipse", "a": 3.0},
        "method": "SRBF", "kernel": {"family": "matern", "s": 2.0},
        "K": 9, "compare_count": 3, "seeds": [2],
        "sample_mode": "random_area"}))
    run_cli("spectrum", "--manifold", "ellipse", "--N", 100,
            "--config", cfg_file, "--out-dir", tmp_path / "file")
    cfg = json.loads((tmp_path / "file" / "run_report.json").read_text())[
        "config"]
    # the file's a used to give way to the --manifold flag's default 2.0
    assert cfg["manifold"] == {"kind": "ellipse", "d": 1, "n": 2, "a": 3.0}
    assert cfg["method"] == "SRBF"
    assert cfg["kernel"] == {"family": "matern", "s": 2.0, "pinv_tol": 1e-8}
    assert (cfg["K"], cfg["compare_count"]) == (9, 3)
    assert cfg["seeds"] == [2] and cfg["sample_mode"] == "random_area"
    assert cfg["operator"] == "LB" and cfg["density"] == "Uniform"
    # a flag still wins, and a kernel flag overrides only its own entry
    run_cli("spectrum", "--manifold", "ellipse", "--a", "2.5", "--N", 100,
            "--config", cfg_file, "--method", "NRBF", "--s", 0.5,
            "--seed", 0, "--out-dir", tmp_path / "flags")
    cfg = json.loads((tmp_path / "flags" / "run_report.json").read_text())[
        "config"]
    assert cfg["method"] == "NRBF" and cfg["seeds"] == [0]
    assert cfg["kernel"] == {"family": "matern", "s": 0.5, "pinv_tol": 1e-8}
    assert cfg["manifold"]["a"] == 2.5


def test_cli_config_file_manifold_block_merges_with_the_flags(tmp_path,
                                                              monkeypatch,
                                                              capsys):
    configs = []

    def capture(config):
        configs.append(config)
        raise AssertionError("stop")

    monkeypatch.setattr(cli, "run_experiment", capture)
    cfg_file = tmp_path / "study.json"
    argv = ["spectrum", "--manifold", "torus", "--N", "50",
            "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")]
    cfg_file.write_text(json.dumps({"manifold": {"kind": "torus", "a": 3}}))
    for extra, spec in (([], Torus(3.0)), (["--a", "2.5"], Torus(2.5))):
        with pytest.raises(AssertionError, match="stop"):
            cli.main([*argv, *extra])
        assert configs.pop().manifold == spec
    # a file of another kind is refused, not overridden by --manifold
    cfg_file.write_text(json.dumps({"manifold": {"kind": "ellipse"}}))
    refused(argv, "manifold kind 'ellipse' is not --manifold torus", capsys)
    assert configs == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,bad", [
    ("[1]", "does not hold a JSON object"),
    ('{"manifold": "torus"}', "'manifold' entry is not a JSON object"),
    ('{"kernel": null}', "'kernel' entry is not a JSON object"),
])
def test_cli_refuses_a_config_file_that_is_not_nested_objects(text, bad,
                                                              tmp_path,
                                                              capsys):
    # these used to fail with an AttributeError or a TypeError
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(text)
    refused(["spectrum", "--manifold", "torus", "--N", "50",
             "--config", cfg_file, "--out-dir", tmp_path / "out"],
            bad, capsys)
    assert not (tmp_path / "out").exists()


def test_cli_general_torus_defaults_to_the_zoo_torus(capsys):
    # --manifold general-torus is the zoo's GeneralTorus(2.0), n = 21, whose
    # second eigenvalue 0.02812 is not the n = 3 torus's 0.2494; --ambient-n
    # still picks another dimension
    for extra, spec in (([], GeneralTorus(2.0, 21)),
                        (["--ambient-n", "3"], Torus(2.0))):
        cli.main(["truth", "--manifold", "general-torus", "--count", "4",
                  *extra])
        want = zoo.scalar_eigen_truth(spec, 4).values[:4]
        assert capsys.readouterr().out.splitlines()[4:] == [
            f"{lam:.17g},{mult}" for lam, mult in want]
        assert want[1][0] == pytest.approx(
            0.02812 if spec.n == 21 else 0.2494, abs=1e-4)


@pytest.mark.parametrize("argv,bad", [
    (["truth", "--manifold", "torus", "--ambient-n", "21"], "'n': 21"),
    (["spectrum", "--manifold", "sphere", "--flat-d", "3", "--N", "50"],
     "'d': 3"),
    (["spectrum", "--manifold", "sphere", "--a", "3", "--N", "50"],
     "'a': 3.0"),
])
def test_cli_refuses_manifold_flags_the_kind_does_not_hold(argv, bad,
                                                           tmp_path, capsys):
    # these flags used to be dropped: the first printed the n = 3 torus
    out = ["--out", tmp_path / "truth.csv"] if argv[0] == "truth" \
        else ["--out-dir", tmp_path / "out"]
    refused([*argv, *out], f"manifold keys {{{bad}}} do not", capsys)
    assert list(tmp_path.iterdir()) == []


def test_cli_compare_dm_runs_srbf_lb_or_refuses(tmp_path, monkeypatch,
                                                capsys):
    # compare-dm used to overwrite a given method or operator unannounced
    configs = []

    def capture(config):
        configs.append(config)
        raise AssertionError("stop")

    monkeypatch.setattr(cli, "run_experiment", capture)
    argv = ["compare-dm", "--manifold", "torus", "--N", "200",
            "--out-dir", str(tmp_path / "out")]
    with pytest.raises(AssertionError, match="stop"):
        cli.main(argv)
    assert (configs[0].method, configs[0].operator) == ("SRBF", "LB")
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(json.dumps({"method": "NRBF"}))
    # a DM graph the DM study would refuse is refused before the SRBF study
    for extra, name in ((["--method", "NRBF"], "method=NRBF"),
                        (["--operator", "Hodge"], "operator=Hodge"),
                        (["--config", str(cfg_file)], "method=NRBF"),
                        (["--dm-K", "400"], r"K_neighbors must lie in")):
        refused([*argv, *extra], name, capsys)
    assert len(configs) == 1
    assert not (tmp_path / "out").exists()


def test_cli_converge(tmp_path):
    stdout = run_cli("converge", "--manifold", "torus", "--a", "2.0",
                     "--N-list", "100,144,196", "--mode", "random_area",
                     "--kernel", "inverse_quadratic", "--s", 0.5,
                     "--compare-count", 2,
                     "--out-dir", tmp_path)
    assert "fitted log-log slope" in stdout
    rows = np.loadtxt(tmp_path / "run_convergence.csv", delimiter=",")
    assert rows.shape == (3, 2)
    assert list(rows[:, 0]) == [100.0, 144.0, 196.0]
    assert np.all(rows[:, 1] > 0)


def test_cli_compare_dm(tmp_path):
    stdout = run_cli("compare-dm", "--manifold", "torus", "--a", "2.0",
                     "--N", 400, "--mode", "random_area",
                     "--kernel", "inverse_quadratic", "--s", 0.1,
                     "--density", "Analytic", "--compare-count", 4,
                     "--dm-K", 9, "--epsilon", 0.3, "--out-dir", tmp_path)
    table = tmp_path / "run_dm_table.csv"
    text = table.read_text()
    assert "schema=dm-compare-v2" in text
    # the DM flags used to run but echo as null
    config = json.loads(text.splitlines()[1].removeprefix("# config="))
    assert (config["dm_K"], config["dm_epsilon"]) == (9, 0.3)
    assert text.splitlines()[2] == "# mode,truth_value,srbf_value,dm_value"
    assert text in stdout              # the same table on the terminal
    data = np.loadtxt(table, delimiter=",")
    assert data.shape[1] == 4
    assert np.all(data[1:, 1] > 0)     # nonzero truth rows present


def test_cli_compare_dm_without_a_truth_tables_both_spectra(tmp_path,
                                                            monkeypatch):
    # the ellipse has no LB truth: the table's truth column is NaN and the
    # SRBF and DM columns hold each run's leading nontrivial |values|
    runs = []

    def recording(config):
        report = run_experiment(config)
        runs.append(report.runs[0])
        return report

    monkeypatch.setattr(cli, "run_experiment", recording)
    cli.main(["compare-dm", "--manifold", "ellipse", "--N", "100",
              "--compare-count", "3", "--out-dir", str(tmp_path)])
    data = np.loadtxt(tmp_path / "run_dm_table.csv", delimiter=",")
    assert [rec.result is not None for rec in runs] == [True, True]
    assert np.array_equal(data[:, 0], [0, 1, 2])
    assert np.all(np.isnan(data[:, 1]))
    for col, rec in zip((2, 3), runs):
        assert np.array_equal(
            data[:, col], np.abs(rec.result.nontrivial_values())[:3])


def test_cli_tables_share_one_format(tmp_path):
    # every table opens with its schema, names its columns on the last
    # comment line and reads back with no skiprows
    study = ["--method", "SRBF", "--compare-count", "3", "--seed", "1",
             "--out-dir", str(tmp_path)]
    for argv in (["sample", "--N", "30", "--out", tmp_path / "points.csv"],
                 ["tangent", "--N", "60", "--out", tmp_path / "proj.csv"],
                 ["converge", "--N-list", "50,60", *study],
                 ["compare-dm", "--N", "60", *study],
                 ["truth", "--count", "4", "--out", tmp_path / "truth.csv"]):
        cli.main([str(a) for a in argv] + ["--manifold", "sphere"])
    schemas = set()
    for path in sorted(tmp_path.glob("*.csv")):
        lines = path.read_text().splitlines()
        header = [line for line in lines if line.startswith("# ")]
        assert lines[0] == header[0] and \
            header[0].startswith("# schema="), path.name
        schemas.add(header[0].removeprefix("# schema="))
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        assert data.shape[1] == len(header[-1][2:].split(",")), path.name
    assert schemas == {"points-v1", "projection-v2", "spectrum-v1",
                       "alignment-v1", "convergence-v1", "dm-compare-v2",
                       "truth-v2"}


def test_cli_spectrum_prints_the_covariant_field_error(tmp_path, capsys):
    cli.main(["spectrum", "--manifold", "ellipse", "--N", "100",
              "--operator", "Covariant", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "run_report.json").read_text())
    [(_N, err)] = report["convergence"]
    assert f"covariant-derivative max component error: {err:.3e}" in out
    assert "leading eigenvalues" not in out


def test_cli_truth_refuses_a_manifold_without_one(tmp_path, capsys):
    refused(["truth", "--manifold", "ellipse",
             "--out", tmp_path / "truth.csv"],
            "the zoo holds no LB truth for the ellipse", capsys)
    assert list(tmp_path.iterdir()) == []


def test_cli_spectrum_determinism(tmp_path):
    for tag in ("a", "b"):
        run_cli("spectrum", "--manifold", "torus", "--a", "2.0",
                "--N", 100, "--mode", "random_area",
                "--kernel", "inverse_quadratic", "--s", 0.5,
                "--compare-count", 2,
                "--out-dir", tmp_path / tag)
    for name in ("run_N100_seed0_spectrum.csv",
                 "run_N100_seed0_alignment.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("study", [
    ("--manifold", "torus", "--a", "2.0", "--method", "SRBF",
     "--projection", "SecondOrder", "--density", "KDE"),
    ("--manifold", "sphere", "--method", "NRBF", "--operator", "Hodge"),
], ids=["torus-srbf-lb", "sphere-nrbf-hodge"])
def test_spectra_agree_across_blas_thread_counts(study, tmp_path):
    # OpenBLAS splits its products by thread count, so a study's CSV bytes
    # differ between 1 and 2 threads; its values agree to rounding
    # (measured: 1.9e-10 and 1.7e-10 of the largest |value|)
    spectra = []
    for threads in ("1", "2"):
        run_cli("spectrum", *study, "--N", 400, "--seed", 4,
                "--mode", "random_area", "--kernel", "inverse_quadratic",
                "--s", 0.5, "--compare-count", 4,
                "--out-dir", tmp_path / threads,
                env={"OPENBLAS_NUM_THREADS": threads})
        table = np.loadtxt(tmp_path / threads / "run_N400_seed4_spectrum.csv",
                           delimiter=",")
        spectra.append(table[:, 1] + 1j * table[:, 2])
    one, two = spectra
    assert np.abs(one - two).max() <= 1e-8 * np.abs(one).max()
