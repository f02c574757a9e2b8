"""Tangent-space estimation: first and second order local SVD."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from manifold_rbf import cli, tangent
from manifold_rbf.harness import (ExperimentConfig, build_projection,
                                  fit_convergence_slope)
from manifold_rbf.tangent import (ProjectionField, default_neighbor_count,
                                  first_order_svd, knn_indices,
                                  projection_diagnostics, second_order_svd)
from manifold_rbf.zoo import (FlatTorus, PointCloud, Sphere, Torus,
                              analytic_projection, sample_manifold)


def plane_cloud(N=120, seed=0):
    """Points on a tilted 2-plane in R^3 with its exact projector."""
    rng = np.random.default_rng(seed)
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    v = np.array([2.0, 1.0, -2.0]) / 3.0
    coeff = rng.normal(size=(N, 2))
    points = coeff[:, :1] * u + coeff[:, 1:] * v
    P = np.outer(u, u) + np.outer(v, v)
    cloud = PointCloud(points=points, intrinsic=None, spec=None)
    return cloud, P


def circle_cloud(N=400):
    theta = np.linspace(0, 2 * np.pi, N, endpoint=False)
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    return PointCloud(points=points, intrinsic=None, spec=None), theta


# -- basics -------------------------------------------------------------------


def test_default_neighbor_count():
    assert default_neighbor_count(1) == 40
    assert default_neighbor_count(2) == 40
    assert default_neighbor_count(5) == max(40, 3 * 5 * 6)


@pytest.mark.parametrize("estimator", [first_order_svd, second_order_svd])
def test_estimators_default_to_the_default_neighbor_count(estimator):
    cloud = sample_manifold(Torus(2.0), 300, seed=3)
    est = estimator(cloud)
    ref = estimator(cloud, default_neighbor_count(2))
    assert est.K_used == ref.K_used == 40
    assert np.array_equal(est.frames, ref.frames)


def test_knn_excludes_base_point():
    cloud, _P = plane_cloud(30)
    idx = knn_indices(cloud.points, 5)
    for i in range(30):
        assert i not in idx[i]
        assert len(set(idx[i])) == 5


def brute_force_knn(points, K, query_idx):
    """Reference: every distance, query point excluded, ordered by
    distance then index."""
    diff = points[query_idx][:, None, :] - points[None, :, :]
    d2 = np.einsum("qjm,qjm->qj", diff, diff)
    d2[np.arange(len(query_idx)), query_idx] = np.inf
    cols = np.broadcast_to(np.arange(len(points)), d2.shape)
    return np.lexsort((cols, d2), axis=1)[:, :K]


def sq_distances(points, idx):
    diff = points[idx] - points[:, None, :]
    return np.einsum("qkm,qkm->qk", diff, diff)


@pytest.mark.parametrize("seed", range(4))
def test_knn_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(300, 3 + seed))
    everyone = np.arange(300)
    assert np.array_equal(knn_indices(points, 12),
                          brute_force_knn(points, 12, everyone))
    subset = rng.choice(300, size=40, replace=False)
    assert np.array_equal(knn_indices(points, 12, query_idx=subset),
                          brute_force_knn(points, 12, subset))


@pytest.mark.parametrize("spec", [FlatTorus(), Torus(2.0)],
                         ids=lambda spec: spec.kind)
def test_knn_matches_brute_force_on_a_grid(spec):
    # a grid holds many distances that tie up to rounding, at the K-th
    # place too, where a search by candidates must still rank by
    # (distance, index)
    points = sample_manifold(spec, 400, seed=0, mode="grid").points
    everyone = np.arange(400)
    for K in (12, 40):
        assert np.array_equal(knn_indices(points, K),
                              brute_force_knn(points, K, everyone))


def kd_tree_knn(points, K, query_idx):
    """Reference: a KD-tree query of K + 1 neighbours, the query point
    dropped; a cloud without ties orders them by distance alone."""
    _dist, idx = cKDTree(points).query(points[query_idx], k=K + 1)
    return idx[idx != query_idx[:, None]].reshape(len(query_idx), K)


@pytest.mark.parametrize("seed", range(10))
def test_knn_matches_a_kd_tree_on_the_torus(seed):
    # the cloud of the torus-compare benchmark, at its K (40) and one more
    points = sample_manifold(Torus(2.0), 1600, seed=seed,
                             mode="random_area").points
    subset = np.random.default_rng(seed).choice(1600, size=100,
                                                replace=False)
    for K in (40, 41):
        for query in (np.arange(1600), subset):
            assert np.array_equal(knn_indices(points, K, query),
                                  kd_tree_knn(points, K, query))


def test_knn_with_exact_duplicates():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(60, 3))
    # points 0..9 appear twice, point 0 four more times (six copies)
    points = np.vstack([base, base[:10], np.repeat(base[:1], 4, axis=0)])
    N, K = len(points), 8
    idx = knn_indices(points, K)
    # copies of point 0 tie at the K-th distance, so compare the distances
    # and the order; which tied copy fills the last slots is not fixed
    d2 = sq_distances(points, idx)
    assert np.array_equal(
        d2, sq_distances(points, brute_force_knn(points, K, np.arange(N))))
    assert np.array_equal(np.lexsort((idx, d2), axis=1),
                          np.broadcast_to(np.arange(K), idx.shape))
    for i in range(N):
        assert i not in idx[i]
        twins = np.flatnonzero(np.all(points == points[i], axis=1))
        twins = twins[twins != i]
        # the duplicates come first, at distance zero, in index order
        assert np.array_equal(idx[i, :len(twins)], twins)
    # more duplicates than neighbors: the row still never holds the query
    crowd = np.vstack([np.repeat(base[:1], 12, axis=0), base[1:]])
    idx = knn_indices(crowd, 4)
    for i in range(12):
        assert i not in idx[i]
        assert np.all(crowd[idx[i]] == crowd[i])
        assert len(set(idx[i])) == 4


def test_blocked_knn_matches_one_block(monkeypatch):
    # the search runs on blocks of query points; blocks of 3 points give
    # the neighbour lists of one block of all, duplicates and a query
    # subset included
    rng = np.random.default_rng(6)
    base = rng.normal(size=(200, 3))
    points = np.vstack([base, base[:10], np.repeat(base[:1], 4, axis=0)])
    subset = rng.choice(len(points), size=50, replace=False)

    def search():
        return [knn_indices(points, 12), knn_indices(points, 12, subset)]

    monkeypatch.setattr(tangent, "FRAME_BLOCK_BYTES", 2 ** 30)
    whole = search()
    monkeypatch.setattr(tangent, "FRAME_BLOCK_BYTES", 3 * 8 * 3 * 12)
    for a, b in zip(whole, search()):
        assert np.array_equal(a, b)


def test_knn_search_holds_one_block_of_temporaries():
    # past its (N, K) result the search holds one block's rows of squared
    # distances, their partition and the candidates' differences: measured
    # 0.31 MiB at N = 1600, K = 40
    N, K = 1600, 40
    points = sample_manifold(Torus(2.0), N, seed=4,
                             mode="random_area").points
    tracemalloc.start()
    try:
        idx = knn_indices(points, K)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - idx.nbytes < 0.5 * 2 ** 20


def test_knn_rejects_K_too_large():
    cloud, _P = plane_cloud(10)
    with pytest.raises(ValueError):
        first_order_svd(cloud, K=10, d=2)


@pytest.mark.parametrize("estimator", [first_order_svd, second_order_svd])
def test_plane_recovered_exactly(estimator):
    cloud, P = plane_cloud()
    est = estimator(cloud, K=20, d=2)
    assert est.N == cloud.N
    err = max(np.linalg.norm(m - P) for m in est.mats)
    assert err <= 1e-12
    assert not est.degenerate.any()


def test_circle_first_order_pointwise():
    cloud, theta = circle_cloud(400)
    est = first_order_svd(cloud, K=10, d=1)
    # at theta=0 the tangent is the y-axis
    P0 = est.mats[0]
    assert np.linalg.norm(P0 - np.diag([0.0, 1.0])) <= 1e-2
    truth = np.einsum("ki,kj->kij",
                      np.column_stack([-np.sin(theta), np.cos(theta)]),
                      np.column_stack([-np.sin(theta), np.cos(theta)]))
    err1 = np.mean([np.linalg.norm(a - b)
                    for a, b in zip(est.mats, truth)])
    est2 = second_order_svd(cloud, K=10, d=1)
    err2 = np.mean([np.linalg.norm(a - b)
                    for a, b in zip(est2.mats, truth)])
    assert err2 < err1   # curvature correction helps on a curved manifold


def test_output_matrix_properties():
    cloud = sample_manifold(Torus(2.0), 500, seed=3)
    for est in (first_order_svd(cloud, K=40),
                second_order_svd(cloud, K=40)):
        mats = est.mats
        assert np.max(np.abs(mats - np.transpose(mats, (0, 2, 1)))) == 0.0
        idem = max(np.linalg.norm(P @ P - P) for P in mats)
        tr = np.max(np.abs(np.trace(mats, axis1=1, axis2=2) - 2.0))
        gram = est.frames.transpose(0, 2, 1) @ est.frames
        assert np.abs(gram - np.eye(2)).max() <= 1e-12
        assert idem <= 1e-10
        assert tr <= 1e-8


def test_rotation_equivariance():
    # orthogonal Q on the inputs conjugates every output projector by Q
    cloud = sample_manifold(Torus(2.0), 400, seed=9)
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = PointCloud(points=cloud.points @ Q.T, intrinsic=None, spec=None)
    for estimator in (first_order_svd, second_order_svd):
        base = estimator(cloud, K=40, d=2).mats
        rot = estimator(rotated, K=40, d=2).mats
        err = max(np.linalg.norm(Q @ P @ Q.T - R)
                  for P, R in zip(base, rot))
        assert err <= 1e-9


def test_degenerate_neighborhood_flagged():
    # colinear points cannot span a 2-plane; the flag must report it
    points = np.column_stack([np.linspace(0, 1, 30),
                              np.zeros(30), np.zeros(30)])
    cloud = PointCloud(points=points, intrinsic=None, spec=None)
    with pytest.warns(RuntimeWarning):
        est = first_order_svd(cloud, K=8, d=2)
    assert est.degenerate.all()


def test_second_order_fallback_flag():
    # rank-deficient quadratic fit (colinear neighbors) falls back per point
    points = np.column_stack([np.linspace(0, 1, 40),
                              np.zeros(40), np.zeros(40)])
    cloud = PointCloud(points=points, intrinsic=None, spec=None)
    with pytest.warns(RuntimeWarning):
        est = second_order_svd(cloud, K=8, d=2)
    assert est.fallback.all()
    # every point keeps the first-order frame, bit for bit
    with pytest.warns(RuntimeWarning):
        first = first_order_svd(cloud, K=8, d=2)
    assert np.array_equal(est.frames, first.frames)


def _fit_all(cloud, K, d):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = [f(cloud, K=K, d=d)
                for f in (first_order_svd, second_order_svd)]
    return fits, [str(w.message) for w in caught]


@pytest.mark.parametrize("case", ["torus", "colinear"])
def test_blocked_fits_match_one_block(monkeypatch, case):
    # the fits run on blocks of query points; blocks of 3 points give every
    # frame and flag, and the warnings' counts, of one block of all
    if case == "torus":
        cloud, K = sample_manifold(Torus(2.0), 500, seed=4), None
    else:   # every neighbourhood degenerate, every quadratic fit deficient
        points = np.column_stack([np.linspace(0, 1, 40),
                                  np.zeros(40), np.zeros(40)])
        cloud, K = PointCloud(points=points, intrinsic=None, spec=None), 8
    whole, whole_warned = _fit_all(cloud, K, 2)
    n, K_used = cloud.points.shape[1], whole[0].K_used
    monkeypatch.setattr(tangent, "FRAME_BLOCK_BYTES", 3 * 8 * n * K_used)
    blocked, blocked_warned = _fit_all(cloud, K, 2)
    assert blocked_warned == whole_warned
    for a, b in zip(whole, blocked):
        for name in ("frames", "degenerate", "fallback"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_frame_fits_hold_a_few_blocks(monkeypatch):
    # past the neighbour search the fits hold the neighbour indices, the
    # frames and one block's temporaries: measured 1.15 MiB of temporaries
    # at N = 1600, 9.9 MiB when the whole cloud was one block
    N = 1600
    cloud = sample_manifold(Torus(2.0), N, seed=4, mode="random_area")
    search = tangent.knn_indices

    def searched(*args, **kwargs):
        out = search(*args, **kwargs)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(tangent, "knn_indices", searched)
    tracemalloc.start()
    try:
        est = second_order_svd(cloud)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = 8 * N * est.K_used + est.frames.nbytes
    assert peak - held < 1.5 * 2 ** 20


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_zero_for_truth():
    cloud = sample_manifold(Sphere(), 100, seed=1, mode="random_area")
    truth = analytic_projection(cloud)
    diag = projection_diagnostics(truth, truth)
    assert diag["max_frob"] == 0.0
    assert diag["mean_frob"] == 0.0
    assert np.all(diag["per_point"] == 0.0)


def test_diagnostics_single_perturbation():
    # tilting one frame vector by eps towards the normal moves the projector
    # by sqrt(2) sin(eps) in the Frobenius norm
    cloud = sample_manifold(Sphere(), 50, seed=2, mode="random_area")
    truth = analytic_projection(cloud)
    frames = truth.frames.copy()
    eps = 1e-3
    normal = cloud.points[7]
    frames[7, :, 0] = np.cos(eps) * frames[7, :, 0] + np.sin(eps) * normal
    est = ProjectionField(frames=frames, source="analytic", K_used=0)
    diag = projection_diagnostics(est, truth)
    assert abs(diag["max_frob"] - np.sqrt(2.0) * np.sin(eps)) <= 1e-12
    assert np.count_nonzero(diag["per_point"]) == 1


def test_diagnostics_shape_mismatch():
    c1 = sample_manifold(Sphere(), 40, seed=0, mode="random_area")
    c2 = sample_manifold(Sphere(), 50, seed=0, mode="random_area")
    with pytest.raises(ValueError):
        projection_diagnostics(analytic_projection(c1),
                               analytic_projection(c2))


# -- accuracy benchmarks ------------------------------------------------------


def test_torus_second_order_accuracy():
    """Regression baseline: mean Frobenius error of the curvature-corrected
    estimate on the torus benchmark (frozen from a reference run: 0.0147 at
    N=3600, K=40, seed 0)."""
    cloud = sample_manifold(Torus(2.0), 3600, seed=0)
    truth = analytic_projection(cloud)
    est = second_order_svd(cloud, K=40)
    diag = projection_diagnostics(est, truth)
    assert diag["mean_frob"] <= 3e-2
    assert diag["mean_frob"] <= 1.5 * 0.0147    # no silent regression


def test_second_order_beats_first_order():
    cloud = sample_manifold(Torus(2.0), 1600, seed=0)
    truth = analytic_projection(cloud)
    mean1 = projection_diagnostics(first_order_svd(cloud, K=40),
                                   truth)["mean_frob"]
    mean2 = projection_diagnostics(second_order_svd(cloud, K=40),
                                   truth)["mean_frob"]
    assert mean2 < mean1
    # and it converges faster, the paper's claim: on the sphere at the
    # default K the log-log slopes of the mean error over N = 200, 400, 800
    # measured -0.69 / -0.65 (first order) against -1.80 / -1.75 (second
    # order) at seeds 0 / 1
    for seed in (0, 1):
        errors = {first_order_svd: [], second_order_svd: []}
        for N in (200, 400, 800):
            cloud = sample_manifold(Sphere(), N, seed=seed, mode="random_area")
            truth = analytic_projection(cloud)
            for estimate, rows in errors.items():
                rows.append((N, projection_diagnostics(
                    estimate(cloud), truth)["mean_frob"]))
        slope1, slope2 = map(fit_convergence_slope, errors.values())
        assert slope2 <= slope1 - 0.8


def test_sphere_below_torus_at_matched_N():
    N, K = 1600, 40
    sph = sample_manifold(Sphere(), N, seed=0, mode="random_area")
    tor = sample_manifold(Torus(2.0), N, seed=0)
    err_s = projection_diagnostics(second_order_svd(sph, K=K),
                                   analytic_projection(sph))["mean_frob"]
    err_t = projection_diagnostics(second_order_svd(tor, K=K),
                                   analytic_projection(tor))["mean_frob"]
    assert err_s < err_t


# -- serialization -------------------------------------------------------------


def test_projection_roundtrip(tmp_path):
    # the tangent command's projection-v2 table holds the projectors
    # P = T T^T of the study's frames, row-major after the point index
    path = tmp_path / "proj.csv"
    cli.main(["tangent", "--manifold", "torus", "--N", "60", "--K", "40",
              "--seed", "4", "--out", str(path)])
    config = ExperimentConfig(manifold=Torus(2.0), N_list=[60],
                              projection="SecondOrder", K=40, compare_count=1)
    _cloud, est = build_projection(config, 60, 4)
    with open(path) as fh:
        assert [fh.readline() for _ in range(3)] == [
            "# schema=projection-v2\n", "# source=second_order K_used=40\n",
            '# manifold={"a": 2.0, "d": 2, "kind": "torus", "n": 3}\n']
    data = np.loadtxt(path, delimiter=",")
    assert np.array_equal(data[:, 0], np.arange(60))
    assert np.array_equal(data[:, 1:].reshape(-1, 3, 3), est.mats)
