"""Experiment runner, error pairing, report emission, CLI round trips."""

import json
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from manifold_rbf.harness import (MEMORY_ENV_VAR, ExperimentConfig,
                                  alignment_gate, check_memory,
                                  fit_convergence_slope, paired_mode_errors,
                                  run_experiment, truth_basis_matrix)
from manifold_rbf.rbf import KernelModel
from manifold_rbf.spectral import SpectralResult
from manifold_rbf.zoo import (EigenTruth, Ellipse, Sphere, Torus,
                              sample_manifold, vector_eigen_truth)


def make_config(**kw):
    base = dict(manifold=Torus(2.0), N_list=[144], method="NRBF",
                operator="LB", projection="Analytic",
                kernel=KernelModel("inverse_quadratic", 0.5),
                modes=8, seeds=[0], compare_count=4,
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


def test_memory_guard(monkeypatch):
    cfg = make_config(N_list=[512], manifold=Sphere())
    check_memory(cfg, 512)                     # desk scale fits the default
    monkeypatch.setenv(MEMORY_ENV_VAR, "0.001")
    with pytest.raises(RuntimeError, match="refusing run"):
        run_experiment(cfg)
    monkeypatch.delenv(MEMORY_ENV_VAR)
    big = make_config(manifold=Sphere(), operator="Bochner", N_list=[4096])
    with pytest.raises(RuntimeError, match="GiB"):
        check_memory(big, 4096)                # vector block matrix blows up


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
                                   [0.0, 1.0, 2.0], count=3)
    assert np.allclose(errs, [0.3, 0.05, 0.1])
    assert list(idx) == [0, 1, 2]


def test_pairing_truncation_zero_fills_slot():
    errs, idx = paired_mode_errors(fake_result([1.05, 2.2]),
                                   [0.0, 1.0, 2.0], count=3)
    assert np.allclose(errs, [0.0, 0.05, 0.1])
    assert list(idx) == [-1, 0, 1]


def test_pairing_relative_denominator_clamped_at_one():
    errs, _ = paired_mode_errors(fake_result([0.6, 2.2]), [0.5, 2.0], count=2)
    assert np.allclose(errs, [0.1, 0.1])


def test_pairing_skips_trivial_and_respects_candidates():
    errs, idx = paired_mode_errors(
        fake_result([1e-16, 1.0], trivial=[True, False]), [1.0], count=1)
    assert np.allclose(errs, [0.0]) and list(idx) == [1]
    errs, idx = paired_mode_errors(fake_result([9.9, 1.05, 2.2]),
                                   [0.0, 1.0, 2.0], count=3,
                                   candidates=[1, 2])
    assert np.allclose(errs, [0.0, 0.05, 0.1])
    assert list(idx) == [-1, 1, 2]


def test_pairing_insufficient_modes():
    with pytest.raises(ValueError):
        paired_mode_errors(fake_result([1.05]), [0.0, 1.0, 2.0], count=3)


# -- truth basis and mode gating -----------------------------------------------


def test_truth_basis_matrix_shapes():
    cloud = sample_manifold(Sphere(), 200, seed=0, mode="random_area")
    scalar = EigenTruth(values=[(2.0, 2)],
                        evaluators=[lambda p: p[:, 2], lambda p: p[:, 0]],
                        kind="scalar")
    F = truth_basis_matrix(scalar, cloud.points, 2)
    assert F.shape == (200, 2)
    assert np.allclose(F[:, 0], cloud.points[:, 2])
    vec = vector_eigen_truth(Sphere(), "Bochner")
    B = truth_basis_matrix(vec, cloud.points, 3)
    assert B.shape == (600, 3)
    assert np.all(np.linalg.norm(B, axis=0) > 0)


def test_alignment_gate_keeps_span_members():
    rng = np.random.default_rng(0)
    cloud = sample_manifold(Sphere(), 200, seed=0, mode="random_area")
    truth = EigenTruth(values=[(2.0, 2)],
                       evaluators=[lambda p: p[:, 2], lambda p: p[:, 0]],
                       kind="scalar")
    F = truth_basis_matrix(truth, cloud.points, 2)
    vectors = np.column_stack([F[:, 0], rng.standard_normal(200),
                               0.5 * F[:, 0] + F[:, 1]])
    res = fake_result([2.01, 5.0, 2.02], vectors=vectors)
    kept, resid = alignment_gate(res, truth, cloud.points, 2)
    assert list(kept) == [0, 2]
    assert resid[0] <= 1e-10 and resid[2] <= 1e-10
    assert resid[1] > 0.9


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


def test_larger_interpolation_cloud_improves_modes():
    errs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for Np in (400, 1600):
            cfg = make_config(N_list=[400], projection="SecondOrder",
                              N_p=Np, modes=8)
            errs[Np] = run_experiment(cfg).runs[0].mode_errors
    assert np.all(errs[1600] < errs[400])


# -- command line --------------------------------------------------------------


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "manifold_rbf.cli",
                           *[str(a) for a in args]],
                          capture_output=True, text=True)
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
    assert "schema=truth-v1" in text
    data = np.loadtxt(out, delimiter=",", skiprows=3)
    assert data.shape == (5, 2)
    assert data[0, 0] == 0.0 and data[0, 1] >= 1


def test_cli_tangent(tmp_path):
    out = tmp_path / "proj.npz"
    stdout = run_cli("tangent", "--manifold", "torus", "--a", "2.0",
                     "--N", 150, "--Np", 600, "--K", 30, "--out", out)
    assert out.exists()
    assert "mean_frob" in stdout


def test_cli_spectrum_and_config_file(tmp_path):
    cfg_file = tmp_path / "extra.json"
    cfg_file.write_text(json.dumps({"truth_count": 12}))
    stdout = run_cli("spectrum", "--manifold", "ellipse", "--a", "1.0",
                     "--N", 100, "--kernel", "inverse_quadratic",
                     "--s", 1.5, "--modes", 5,
                     "--config", cfg_file, "--out-dir", tmp_path,
                     "--prefix", "demo")
    assert "leading eigenvalues:" in stdout
    assert (tmp_path / "demo_N100_seed0_spectrum.csv").exists()
    report = json.loads((tmp_path / "demo_report.json").read_text())
    assert report["config"]["truth_count"] == 12
    assert report["config"]["kernel"]["family"] == "inverse_quadratic"


def test_cli_config_file_entries_survive_flag_defaults(tmp_path):
    cfg_file = tmp_path / "study.json"
    cfg_file.write_text(json.dumps({
        "method": "SRBF", "kernel": {"family": "matern", "s": 2.0},
        "modes": 6, "compare_count": 3, "seeds": [2],
        "sample_mode": "random_area"}))
    run_cli("spectrum", "--manifold", "ellipse", "--a", "1.0", "--N", 100,
            "--config", cfg_file, "--out-dir", tmp_path / "file")
    cfg = json.loads((tmp_path / "file" / "run_report.json").read_text())[
        "config"]
    assert cfg["method"] == "SRBF"
    assert cfg["kernel"] == {"family": "matern", "s": 2.0, "pinv_tol": 1e-8}
    assert (cfg["modes"], cfg["compare_count"]) == (6, 3)
    assert cfg["seeds"] == [2] and cfg["sample_mode"] == "random_area"
    assert cfg["operator"] == "LB" and cfg["density"] == "Uniform"
    # a flag still wins, and a kernel flag overrides only its own entry
    run_cli("spectrum", "--manifold", "ellipse", "--a", "1.0", "--N", 100,
            "--config", cfg_file, "--method", "NRBF", "--s", 0.5,
            "--seed", 0, "--out-dir", tmp_path / "flags")
    cfg = json.loads((tmp_path / "flags" / "run_report.json").read_text())[
        "config"]
    assert cfg["method"] == "NRBF" and cfg["seeds"] == [0]
    assert cfg["kernel"] == {"family": "matern", "s": 0.5, "pinv_tol": 1e-8}


def test_cli_converge(tmp_path):
    stdout = run_cli("converge", "--manifold", "torus", "--a", "2.0",
                     "--N-list", "100,144,196", "--mode", "random_area",
                     "--kernel", "inverse_quadratic", "--s", 0.5,
                     "--compare-count", 2, "--modes", 6,
                     "--out-dir", tmp_path)
    assert "fitted log-log slope" in stdout
    rows = np.loadtxt(tmp_path / "run_convergence.csv", delimiter=",")
    assert rows.shape == (3, 2)
    assert list(rows[:, 0]) == [100.0, 144.0, 196.0]
    assert np.all(rows[:, 1] > 0)


def test_cli_compare_dm(tmp_path):
    run_cli("compare-dm", "--manifold", "torus", "--a", "2.0",
            "--N", 400, "--mode", "random_area",
            "--kernel", "inverse_quadratic", "--s", 0.1,
            "--density", "Analytic", "--compare-count", 4,
            "--out-dir", tmp_path)
    table = tmp_path / "run_dm_table.csv"
    text = table.read_text()
    assert "schema=dm-compare-v1" in text
    assert text.splitlines()[2] == "mode,truth_value,srbf_value,dm_value"
    data = np.loadtxt(table, delimiter=",", skiprows=3)
    assert data.shape[1] == 4
    assert np.all(data[1:, 1] > 0)     # nonzero truth rows present


def test_cli_spectrum_determinism(tmp_path):
    for tag in ("a", "b"):
        run_cli("spectrum", "--manifold", "torus", "--a", "2.0",
                "--N", 100, "--mode", "random_area",
                "--kernel", "inverse_quadratic", "--s", 0.5,
                "--compare-count", 2, "--modes", 4,
                "--out-dir", tmp_path / tag)
    for name in ("run_N100_seed0_spectrum.csv",
                 "run_N100_seed0_alignment.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
