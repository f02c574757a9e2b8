"""Benchmark workloads and one pass over a workload's studies.

A workload is a list of studies that share a point-cloud seed. Each study
is one `run_experiment` configuration, run through the same public path as
`manifold-rbf spectrum` / `compare-dm`: `ExperimentConfig.from_dict`,
`run_experiment`, then `Report.write` into a temporary directory. The pass is
the same code whether or not a tracer has wrapped the package functions.

A study fails when it raises, returns a non-finite spectrum, or breaks its
truth check (mean paired eigenvalue or aligned eigenvector error above the
study's tolerance). A failing study is counted, never fatal to the pass.
"""

import hashlib
import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from manifold_rbf import harness, zoo

KERNEL = {"family": "inverse_quadratic", "s": 0.5, "pinv_tol": 1e-8}

# Why each workload is here: BENCHMARK.json and NOTES.md. The truth-check
# tolerances sit well above the errors of seeds 0-9 when the benchmark was
# written (SRBF eigenvalues run 10-40% low, a known defect kept visible in
# the digits metrics), so they catch a broken study, not a slightly less
# accurate one.
WORKLOADS = {
    "torus-compare": [
        {"label": "srbf", "N": 1600, "max_eig_err": 0.5,
         "max_vec_err": 0.5,
         "config": {"manifold": zoo.Torus(2.0).to_dict(),
                    "method": "SRBF", "operator": "LB",
                    "projection": "SecondOrder", "density": "KDE",
                    "sample_mode": "random_area"}},
        {"label": "dm", "N": 1600, "max_eig_err": 0.2,
         "max_vec_err": 0.5,
         "config": {"manifold": zoo.Torus(2.0).to_dict(),
                    "method": "DM", "operator": "LB",
                    "projection": "SecondOrder", "density": "KDE",
                    "sample_mode": "random_area"}},
    ],
    "gtorus21-lb": [
        {"label": "srbf", "N": 1200, "max_eig_err": 0.5,
         "max_vec_err": 0.7,
         "config": {"manifold": zoo.GeneralTorus(2.0, 21).to_dict(),
                    "method": "SRBF", "operator": "LB",
                    "projection": "Analytic", "density": "Analytic",
                    "sample_mode": "random_intrinsic"}},
    ],
    "sphere-hodge": [
        {"label": "srbf", "N": 800, "max_eig_err": 0.5,
         "max_vec_err": 0.5,
         "config": {"manifold": zoo.Sphere().to_dict(),
                    "method": "SRBF", "operator": "Hodge",
                    "projection": "Analytic", "density": "Uniform",
                    "sample_mode": "random_area", "compare_count": 6}},
        {"label": "nrbf", "N": 600, "max_eig_err": 1e-4,
         "max_vec_err": 1e-4,
         "config": {"manifold": zoo.Sphere().to_dict(),
                    "method": "NRBF", "operator": "Hodge",
                    "projection": "Analytic", "density": "Uniform",
                    "sample_mode": "random_area", "compare_count": 6}},
    ],
}


def study_configs(workload, seed, shrink=1):
    """(label, config dict, study spec) for each study of the workload.

    shrink divides every cloud size; the benchmark's tests use it to run a
    small variant of each workload.
    """
    out = []
    for study in WORKLOADS[workload]:
        cfg = dict(study["config"], kernel=dict(KERNEL), seeds=[seed],
                   N_list=[study["N"] // shrink])
        out.append((study["label"], cfg, study))
    return out


@dataclass
class StudyOutcome:
    label: str
    method: str
    error: str = None            # why the study failed, None if it passed
    eig_err: float = None        # mean paired relative eigenvalue error
    vec_err: float = None        # mean OLS-aligned eigenvector error
    warnings: int = 0
    digests: dict = field(default_factory=dict)   # CSV name -> SHA-256
    record: object = None        # the RunRecord, for health counters

    @property
    def ok(self):
        return self.error is None


@dataclass
class WorkloadPass:
    wall_s: float
    studies: list

    @property
    def digests(self):
        return {f"{s.label}/{name}": d for s in self.studies
                for name, d in sorted(s.digests.items())}


def _csv_digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _check(outcome, spec):
    """Fill in the errors; return why the study fails, or None."""
    rec = outcome.record
    res = rec.result
    if res is None or not np.all(np.isfinite(res.all_values)):
        return "non-finite or missing spectrum"
    if rec.mode_errors is None or rec.vec_errors is None:
        return "no truth comparison was made"
    outcome.eig_err = float(np.mean(rec.mode_errors))
    valid = rec.vec_errors[np.isfinite(rec.vec_errors)]
    if len(valid) == 0:
        return "no eigenvector could be aligned with the truth"
    outcome.vec_err = float(np.mean(valid))
    if not outcome.eig_err <= spec["max_eig_err"]:
        return (f"mean eigenvalue error {outcome.eig_err:.3g} above "
                f"{spec['max_eig_err']}")
    if not outcome.vec_err <= spec["max_vec_err"]:
        return (f"mean eigenvector error {outcome.vec_err:.3g} above "
                f"{spec['max_vec_err']}")
    return None


def _run_study(label, cfg, out_dir):
    outcome = StudyOutcome(label=label, method=cfg["method"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # a failing study is counted and the pass goes on
        try:
            config = harness.ExperimentConfig.from_dict(cfg)
            report = harness.run_experiment(config)
            outcome.record = report.runs[0]
            report.write(out_dir, prefix=label)
        except Exception as exc:
            outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.warnings = len(caught)
    return outcome


def run_pass(workload, seed, work_root, shrink=1):
    """Run every study of the workload once; time the studies only.

    Report.write goes to a fresh directory under work_root, which is
    removed again once the CSV digests are taken.
    """
    studies = study_configs(workload, seed, shrink)
    dirs = [tempfile.mkdtemp(prefix=f"{label}-", dir=work_root)
            for label, _cfg, _spec in studies]
    try:
        t0 = time.perf_counter()
        outcomes = [_run_study(label, cfg, out_dir)
                    for (label, cfg, _spec), out_dir in zip(studies, dirs)]
        wall = time.perf_counter() - t0
        for outcome, (_label, _cfg, spec), out_dir in zip(
                outcomes, studies, dirs):
            if outcome.ok:
                outcome.error = _check(outcome, spec)
            outcome.digests = _csv_digests(out_dir)
    finally:
        for out_dir in dirs:
            shutil.rmtree(out_dir, ignore_errors=True)
    return WorkloadPass(wall_s=wall, studies=outcomes)
