"""Checks of the benchmark itself, on a small-N variant of each workload."""

import numpy as np
import pytest

import run
import spans
import studies
from manifold_rbf import harness

# At this size the sphere SRBF study raises "spectrum provides only k usable
# modes" (a known defect), so the small variants also cover a failing study.
SHRINK = 4


@pytest.fixture(scope="module", params=sorted(studies.WORKLOADS))
def plain_and_traced(request, tmp_path_factory):
    """One untraced and one traced pass of a workload, same seed."""
    work = tmp_path_factory.mktemp(request.param)
    plain = studies.run_pass(request.param, 3, work, shrink=SHRINK)
    with spans.Tracer() as tracer:
        traced = studies.run_pass(request.param, 3, work, shrink=SHRINK)
    return plain, traced, tracer


def test_same_seed_writes_identical_csvs(plain_and_traced):
    plain, traced, _tracer = plain_and_traced
    assert plain.digests
    assert traced.digests == plain.digests
    assert [s.error for s in traced.studies] == \
        [s.error for s in plain.studies]


def test_traced_pass_returns_the_untraced_spectra(plain_and_traced):
    plain, traced, _tracer = plain_and_traced
    pairs = [(a, b) for a, b in zip(plain.studies, traced.studies)
             if a.record is not None]
    assert pairs
    for a, b in pairs:
        assert b.record is not None
        assert np.array_equal(a.record.result.all_values,
                              b.record.result.all_values)
        assert np.array_equal(a.record.result.vectors,
                              b.record.result.vectors)


def test_layer_self_times_add_up_to_the_traced_wall(plain_and_traced):
    _plain, traced, tracer = plain_and_traced
    layers = spans.per_layer_metrics(tracer, traced)
    assert set(layers) == set(spans.PER_LAYER_UNITS) - {
        "bench.trace_overhead_s", "spectral.vec_digits.srbf",
        "spectral.vec_digits.best"}
    assert tracer.absent == []
    assert 0.0 <= layers["bench.unaccounted_s"] < 0.05 * traced.wall_s
    assert layers["harness.glue_s"] > 0.0
    assert layers["zoo.truth_calls"] == len(traced.studies)


def test_tracer_restores_wrapped_functions_and_reports_absent_names(
        monkeypatch):
    original = harness.build_system
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + [
        ("manifold_rbf.harness", "no_such_function", "harness.glue", None)])
    with spans.Tracer() as tracer:
        assert harness.build_system is not original
    assert harness.build_system is original
    assert tracer.absent == ["manifold_rbf.harness.no_such_function"]


def test_raising_study_is_counted_not_fatal(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    monkeypatch.setattr(harness, "solve_nonsymmetric", broken)
    wpass = studies.run_pass("sphere-hodge", 3, tmp_path)
    outcome = {s.label: s for s in wpass.studies}
    assert outcome["srbf"].ok
    assert outcome["nrbf"].error == "LinAlgError: injected failure"
    report = {"studies": [vars(s) for s in wpass.studies],
              "digests": wpass.digests}
    assert run.check([report]) == ["nrbf: LinAlgError: injected failure"]


def test_digest_mismatch_fails_the_check():
    a = {"studies": [], "digests": {"x.csv": "0"}}
    b = {"studies": [], "digests": {"x.csv": "1"}}
    assert run.check([a, a]) == []
    assert len(run.check([a, b])) == 1
