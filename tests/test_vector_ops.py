"""Block vector-field operators: H_i, S_i, the three Laplacians, covariant
derivative. The ellipse cases check against closed-form 1D tensor calculus:
for U = sin(theta) d_theta on x(theta) = (cos t, a sin t) the covariant
gradient coefficient is u1_cov = cos t + sin t g'/(2g) with
g = sin^2 t + a^2 cos^2 t. The factored operators are checked against dense
nN x nN references built here block by block; their eigenvectors are frame
coordinates, lifted to ambient components by spectral.lift over the frames;
tangent_range_basis, the sparse range basis W, is the reference for it."""

import sys
import tracemalloc

import numpy as np
import pytest

from manifold_rbf import rbf, vector_ops
from manifold_rbf.rbf import KernelModel, blockwise, build_system
from manifold_rbf.scalar_ops import (GeneralizedPair, ambient_gradient,
                                     build_grad_matrices,
                                     laplace_beltrami_nonsymmetric,
                                     laplace_beltrami_symmetric)
from manifold_rbf.spectral import lift, solve_nonsymmetric, solve_symmetric
from manifold_rbf.tangent import ProjectionField, second_order_svd
from manifold_rbf.vector_ops import (LAPLACIANS, bochner,
                                     covariant_derivative, h_matrix, hodge,
                                     lichnerowicz, potimes_matrix, s_matrix,
                                     stacked, tangent_range_basis)
from manifold_rbf.zoo import (Ellipse, GeneralTorus, Sphere, Torus,
                              analytic_projection, sample_manifold,
                              sampling_density)

# the builders by their LAPLACIANS name
FORMS = {"Bochner": bochner, "Hodge": hodge, "Lich": lichnerowicz}
# the paper's weight on |X + swap X^T|^2 in each symmetric form
FORM_WEIGHTS = {"Bochner": 1.0, "Hodge": 0.5, "Lich": 0.5}


def form_id(name):
    """A parametrized name's test id: its builder's name, or the name."""
    return FORMS[name].__name__ if name in FORMS else name


def ellipse_setup(N=400, a=2.0, seed=0, s=1.5):
    cloud = sample_manifold(Ellipse(a), N, seed=seed)
    theta = cloud.intrinsic[:, 0]
    xp = np.column_stack([-np.sin(theta), a * np.cos(theta)])
    g = np.sin(theta) ** 2 + a ** 2 * np.cos(theta) ** 2
    gp = np.sin(2 * theta) * (1 - a ** 2)
    tau = xp / np.sqrt(g)[:, None]
    u1 = np.sin(theta)
    cov11 = np.cos(theta) + u1 * gp / (2 * g)
    U = u1[:, None] * xp
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("gaussian", s))
    ops = build_grad_matrices(system, proj)
    return dict(cloud=cloud, theta=theta, xp=xp, g=g, gp=gp, tau=tau,
                u1=u1, cov11=cov11, U=U, proj=proj, system=system, ops=ops)


@pytest.fixture(scope="module")
def ellipse():
    return ellipse_setup()


def plane_setup(N=150, seed=3):
    rng = np.random.default_rng(seed)
    t1 = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    t2 = np.array([0.0, 1.0, 0.0])
    coeff = rng.uniform(-1.0, 1.0, size=(N, 2))
    pts = coeff[:, :1] * t1 + coeff[:, 1:] * t2
    from manifold_rbf.zoo import PointCloud
    cloud = PointCloud(points=pts, intrinsic=None, spec=None)
    T = np.column_stack([t1, t2])
    proj = ProjectionField(frames=np.broadcast_to(T, (N, 3, 2)).copy(),
                           source="analytic", K_used=0)
    system = build_system(cloud, KernelModel("gaussian", 0.02, pinv_tol=1e-12))
    ops = build_grad_matrices(system, proj)
    return cloud, proj, system, ops, (t1, t2)


# -- dense references -----------------------------------------------------------
# The operators are stored factored through I_n kron U^T; these build the
# nN x nN blocks of the paper's ambient form one diagonal scaling at a time.


def dense_gradients(ops):
    """The n dense ambient gradient matrices G_i U^T."""
    U = ops.U
    return [ambient_gradient(ops, i) @ U.T for i in range(ops.n)]


def ref_potimes(ops):
    P = ops.proj.mats
    N, n = ops.N, ops.n
    out = np.zeros((n * N, n * N))
    rng = np.arange(N)
    for i in range(n):
        for j in range(n):
            out[i * N + rng, j * N + rng] = P[:, i, j]
    return out


def ref_h(ops, i, G):
    # block (j, k) = diag(p_jk) G_i
    P = ops.proj.mats
    return np.block([[P[:, j, k][:, None] * G[i] for k in range(ops.n)]
                     for j in range(ops.n)])


def ref_s(ops, i, G):
    # block (j, k) = diag(p_ki) G_j
    P = ops.proj.mats
    return np.block([[P[:, k, i][:, None] * G[j] for k in range(ops.n)]
                     for j in range(ops.n)])


def ref_nonsymmetric(ops, name):
    # -sum_i H_i (H_i + swap S_i) - div [G_j G_k]
    swap, div = LAPLACIANS[name]
    G = dense_gradients(ops)
    L = np.zeros((ops.n * ops.N,) * 2)
    for i in range(ops.n):
        Hi = ref_h(ops, i, G)
        L -= Hi @ (Hi + swap * ref_s(ops, i, G))
    if div:
        L -= np.block([[Gj @ Gk for Gk in G] for Gj in G])
    return L


def apply_factored(F, ops, vec):
    """The ambient operator W F (I_n kron U^T) of an NRBF factor F on frame
    coordinates, applied to a stacked vector."""
    W = tangent_range_basis(ops.proj)
    return W @ (F @ blockwise(ops.U.T, vec[:, None])[:, 0])


# -- field layout -------------------------------------------------------------


def test_stacked_layout():
    # (N, n) samples stack coordinate by coordinate: (U^1; ...; U^n)
    samples = np.arange(12.0).reshape(4, 3)
    vec = stacked(samples)
    assert vec.shape == (12,)
    assert np.array_equal(vec[:4], samples[:, 0])
    assert np.array_equal(vec.reshape(3, -1)[2], samples[:, 2])
    assert np.array_equal(vec.reshape(3, -1).T, samples)


# -- block projection ---------------------------------------------------------


def test_potimes_symmetric_idempotent():
    cloud = sample_manifold(Torus(2.0), 300, seed=1)
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, proj)
    Pot = potimes_matrix(ops)
    assert np.array_equal(Pot, Pot.T)
    assert np.abs(Pot @ Pot - Pot).max() <= 1e-10


def test_potimes_annihilates_normal_field():
    cloud = sample_manifold(Sphere(), 300, seed=0, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("gaussian", 1.0))
    ops = build_grad_matrices(system, proj)
    U = stacked(cloud.points)   # outward normal on S^2
    out = potimes_matrix(ops) @ U
    assert np.linalg.norm(out) <= 1e-8 * np.linalg.norm(U)


def test_h_output_stays_tangential(ellipse):
    ops = ellipse["ops"]
    Pot = potimes_matrix(ops)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(2 * ops.N)
    for i in range(2):
        w = h_matrix(ops, i) @ v
        assert np.linalg.norm(w - Pot @ w) <= 1e-10 * np.linalg.norm(v)


def test_tangent_range_basis_orthonormal(ellipse):
    W = tangent_range_basis(ellipse["proj"]).toarray()
    assert W.shape == (800, 400)
    assert np.abs(W.T @ W - np.eye(400)).max() <= 1e-12
    assert np.abs(W @ W.T - potimes_matrix(ellipse["ops"])).max() <= 1e-15


# -- gradient of a vector field -----------------------------------------------


def test_plane_constant_field_annihilated():
    _, _, _, ops, (t1, t2) = plane_setup()
    U = stacked(np.tile(0.4 * t1 - 0.9 * t2, (ops.N, 1)))
    for i in range(3):
        out = h_matrix(ops, i) @ U
        assert np.abs(out).max() <= 1e-6


def test_ellipse_grad_tensor(ellipse):
    # (H_i U)^j should match the analytic tensor u1_cov * tau_j tau_i
    ops, U = ellipse["ops"], ellipse["U"]
    for i in range(2):
        got = (h_matrix(ops, i) @ stacked(U)).reshape(2, -1)
        want = ellipse["cov11"][None, :] * ellipse["tau"].T \
            * ellipse["tau"][:, i][None, :]
        assert np.abs(got - want).max() <= 1e-2


# -- Laplacians applied to fields ----------------------------------------------


def analytic_bochner(e):
    # -(1/g) d/dtheta of the covariant gradient coefficient, times d_theta
    a = 2.0
    t, g, gp = e["theta"], e["g"], e["gp"]
    s, c = np.sin(t), np.cos(t)
    gpp = 2 * np.cos(2 * t) * (1 - a ** 2)
    dcov = -s + c * gp / (2 * g) + s * gpp / (2 * g) - s * gp ** 2 / (2 * g ** 2)
    return (-dcov / g)[:, None] * e["xp"]


def test_ellipse_bochner_field_error(ellipse):
    B = bochner("NRBF", ellipse["system"], ellipse["proj"])
    got = apply_factored(B, ellipse["ops"],
                         stacked(ellipse["U"])).reshape(2, -1).T
    err = np.abs(got - analytic_bochner(ellipse))
    assert err[:, 0].max() <= 0.05


def test_ellipse_lichnerowicz_field_error(ellipse):
    L = lichnerowicz("NRBF", ellipse["system"], ellipse["proj"])
    got = apply_factored(L, ellipse["ops"],
                         stacked(ellipse["U"])).reshape(2, -1).T
    err = np.abs(got - 2 * analytic_bochner(ellipse))
    assert err[:, 0].max() <= 0.1


def test_one_dim_identities():
    # wide kernel regime where the discrete grad/div compositions agree
    e = ellipse_setup(N=800, s=4.5)
    ops, vec = e["ops"], stacked(e["U"])
    BU, HU, LU = (apply_factored(form("NRBF", e["system"], e["proj"]), ops,
                                 vec)
                  for form in (bochner, hodge, lichnerowicz))
    scale = np.linalg.norm(BU)
    assert np.linalg.norm(HU - BU) <= 1e-6 * scale
    assert np.linalg.norm(LU - 2 * BU) <= 1e-4 * scale


def test_rejects_unknown_kind(ellipse):
    # the builders take a study's method; the old form names are gone too
    for op in (bochner, hodge, lichnerowicz):
        for method in ("weak", "DM", "symmetric", "nonsymmetric"):
            with pytest.raises(ValueError, match="unknown method"):
                op(method, ellipse["system"], ellipse["proj"])


# -- symmetric variants ---------------------------------------------------------


@pytest.fixture(scope="module")
def ellipse_symmetric(ellipse):
    q = sampling_density(ellipse["cloud"])
    pairs = {name: form("SRBF", ellipse["system"], ellipse["proj"], q)
             for name, form in FORMS.items()}
    return q, pairs


def test_symmetric_pairs_structure(ellipse, ellipse_symmetric):
    q, pairs = ellipse_symmetric
    r = ellipse["system"].rank_L
    for pair in pairs.values():
        # ellipse: d = 1, so the pencils live on N frame coordinates and
        # factor through the n r = 2 r columns of W^T (I_2 kron U)
        assert pair.A.shape == (2 * r, 2 * r)
        assert pair.factor.shape == (400, 2 * r)
        assert np.array_equal(pair.A, pair.A.T)
        assert pair.B is None and np.array_equal(pair.B_diag, 1.0 / q)
        assert pair.range_basis is ellipse["proj"].frames


def test_symmetric_spectra_real_nonnegative(ellipse_symmetric):
    _, pairs = ellipse_symmetric
    for pair in pairs.values():
        res = solve_symmetric(pair, k=50)
        assert np.isrealobj(res.values)
        scale = np.abs(res.all_values).max()
        assert res.values.min() >= -1e-8 * scale


def lifted_prefix(res, k):
    """Assert that res lifted its trivial prefix and the k nontrivial modes
    after it; return the number of lifted modes."""
    m = res.vectors.shape[1]
    prefix = int(np.argmin(res.trivial))
    assert prefix > 0 and not res.trivial[prefix:].any()
    assert m == prefix + k == len(res.values) == len(res.trivial)
    return m


def test_symmetric_eigenvectors_tangential(ellipse_symmetric):
    # k counts nontrivial modes; the trivial prefix is lifted with them, on
    # the N frame coordinates, and the frames lift them to tangent ambient
    # fields
    _, pairs = ellipse_symmetric
    pair = pairs["Bochner"]
    res = solve_symmetric(pair, k=30)
    m = lifted_prefix(res, 30)
    assert res.vectors.shape == (400, m)
    T = pair.range_basis
    for j in range(m):
        if res.trivial[j]:
            continue
        v = lift(T, res.vectors[:, j])
        back = lift(T, lift(T.transpose(0, 2, 1), v))
        assert np.linalg.norm(v - back) <= 1e-6 * np.linalg.norm(v)


def test_symmetric_b_orthogonality(ellipse_symmetric):
    # the lifted eigenvectors, trivial prefix included, are orthonormal in
    # the ambient Qt^{-1} product once the frames lift them
    q, pairs = ellipse_symmetric
    pair = pairs["Lich"]
    res = solve_symmetric(pair, k=25)
    m = lifted_prefix(res, 25)
    V = lift(pair.range_basis, res.vectors)
    gram = V.T @ (np.tile(1.0 / q, 2)[:, None] * V)
    assert np.abs(gram - np.eye(m)).max() <= 1e-8


def test_symmetric_half_factor(ellipse):
    # the quadratic forms carry the printed 1/2 on the (H -+ S) terms; the
    # frame-basis pencil is the ambient one restricted to the range basis
    ops = ellipse["ops"]
    q = sampling_density(ellipse["cloud"])
    qt = np.tile(1.0 / q, 2)
    G = dense_gradients(ops)
    Pot = ref_potimes(ops)
    manual = np.zeros_like(Pot)
    for i in range(2):
        M = (ref_h(ops, i, G) + ref_s(ops, i, G)) @ Pot
        manual += 0.5 * (M.T @ (qt[:, None] * M))
    W = tangent_range_basis(ops.proj).toarray()
    manual = W.T @ manual @ W
    pair = lichnerowicz("SRBF", ellipse["system"], ops.proj, q)
    got = pair.factor @ pair.A @ pair.factor.T
    assert np.abs(got - manual).max() <= 1e-12 * np.abs(manual).max()


def ambient_pencil(ops, q, name):
    # the nN ambient form: sum_i coeff |(H_i + swap S_i) Pot|^2 weighted by
    # Qt^{-1}, plus Pot [G_j^T Q^{-1} G_k] Pot for Hodge
    swap, div = LAPLACIANS[name]
    coeff = FORM_WEIGHTS[name]
    n, N = ops.n, ops.N
    qinv = 1.0 / q
    qt = np.tile(qinv, n)
    G = dense_gradients(ops)
    Pot = ref_potimes(ops)
    A = np.zeros_like(Pot)
    for i in range(n):
        M = (ref_h(ops, i, G) + swap * ref_s(ops, i, G)) @ Pot
        A += coeff * (M.T @ (qt[:, None] * M))
    if div:
        K = np.block([[G[j].T @ (qinv[:, None] * G[k]) for k in range(n)]
                      for j in range(n)])
        A += Pot @ K @ Pot
    return A


@pytest.mark.parametrize("name", sorted(LAPLACIANS), ids=form_id)
def test_frame_pencil_matches_ambient_reference(name):
    # the dN frame-basis pencil R A R^T is W^T A W of the nN ambient form
    cloud = sample_manifold(Sphere(), 150, seed=1, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    ops = build_grad_matrices(system, proj)
    q = np.random.default_rng(0).uniform(0.5, 2.0, cloud.N)
    W = tangent_range_basis(proj).toarray()
    want = W.T @ ambient_pencil(ops, q, name) @ W
    pair = FORMS[name]("SRBF", system, proj, q)
    got = pair.factor @ pair.A @ pair.factor.T
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(pair.B_diag, np.tile(1.0 / q, 2))


def whole_factor_form(system, proj, q, name):
    """A of an SRBF vector pencil from the whole factors G_a: the parts
    C(b, c) = rows kron(T[:, :, b], G_c / sqrt(q)) over the whole cloud,
    coeff sum_{b,c} |C(b, c) + swap C(c, b)|^2 plus |sum_c C(c, c)|^2 for
    Hodge, the formula before the forms were summed over row blocks."""
    swap, div = LAPLACIANS[name]
    coeff = FORM_WEIGHTS[name]
    T, G = proj.frames, build_grad_matrices(system, proj).G
    d = len(G)
    root = np.sqrt(1.0 / q)[:, None]

    def part(b, c):
        return np.einsum("xi,xk->xik", T[:, :, b],
                         root * G[c]).reshape(system.N, -1)

    A = 0.0
    for c in range(d):
        for b in range(d):
            F = part(b, c)
            if swap:
                F += swap * part(c, b)
            A += F.T @ F
    A *= coeff
    if div:
        Delta = sum(part(c, c) for c in range(d))
        A += Delta.T @ Delta
    return A


@pytest.mark.parametrize("name", sorted(LAPLACIANS), ids=form_id)
@pytest.mark.parametrize("cloud", ["ellipse", "sphere"])
def test_streamed_vector_form_equals_the_whole_factor_form(
        name, cloud, ellipse, sphere_small, monkeypatch):
    # the vector forms are summed over the row blocks of the derivatives:
    # at the default blocks and at one row per block A equals the
    # whole-factor formula of the same blocks to rounding (measured: at
    # most 1.1e-15 relative Frobenius) and is exactly symmetric
    if cloud == "ellipse":
        system, proj = ellipse["system"], ellipse["proj"]
        q = sampling_density(ellipse["cloud"])
    else:
        ops, q, system = sphere_small
        proj = ops.proj
    for block_bytes in (rbf.ROW_BLOCK_BYTES, 8 * system.N):
        monkeypatch.setattr(rbf, "ROW_BLOCK_BYTES", block_bytes)
        want = whole_factor_form(system, proj, q, name)
        A = FORMS[name]("SRBF", system, proj, q).A
        assert np.array_equal(A, A.T)
        assert np.linalg.norm(A - want) <= 1e-13 * np.linalg.norm(want)
    assert len(list(rbf.row_blocks(system.N))) == system.N


@pytest.mark.parametrize("name,count", [("Bochner", 4), ("Hodge", 2),
                                        ("Lich", 3)], ids=form_id)
def test_vector_forms_sum_each_distinct_part_once(name, count, sphere_small,
                                                  monkeypatch):
    # per row block on a surface (d = 2): Bochner's 4 parts X_cb, Hodge's
    # one X_12 - X_21 and its divergence, Lich's X_11, X_12 + X_21 and X_22;
    # the copies X_bc + swap X_cb = swap (X_cb + swap X_bc) and Hodge's
    # zero X_bb - X_bb are not summed again
    ops, q, system = sphere_small
    counts = []

    def counting(system, proj, q, size, terms):
        def counted(rows, block):
            parts = list(terms(rows, block))
            counts.append(len(parts))
            return parts
        return weak_form(system, proj, q, size, counted)

    weak_form = vector_ops._weak_form
    monkeypatch.setattr(vector_ops, "_weak_form", counting)
    FORMS[name]("SRBF", system, ops.proj, q)
    assert counts and set(counts) == {count}


@pytest.mark.parametrize("op", [bochner, hodge, lichnerowicz])
def test_symmetric_vector_forms_reject_bad_density(ellipse, op):
    q = sampling_density(ellipse["cloud"])
    nan = q.copy()
    nan[3] = np.nan
    zero = q.copy()
    zero[3] = 0.0
    for bad in (None, q[:-1], nan, zero):
        with pytest.raises(ValueError, match="density"):
            op("SRBF", ellipse["system"], ellipse["proj"], bad)


# -- factored operators against the dense references ---------------------------

@pytest.fixture(scope="module")
def sphere_small():
    # rank_L = 72: every form is solved at its reduced size (3 r <= 2/3 d N)
    cloud = sample_manifold(Sphere(), 200, seed=3, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.4))
    ops = build_grad_matrices(system, proj)
    q = np.random.default_rng(5).uniform(0.5, 2.0, cloud.N)
    return ops, q, system


def test_dense_blocks_match_references(sphere_small):
    ops, _q, _system = sphere_small
    G = dense_gradients(ops)
    assert np.array_equal(potimes_matrix(ops), ref_potimes(ops))
    for i in range(ops.n):
        for got, want in ((h_matrix(ops, i), ref_h(ops, i, G)),
                          (s_matrix(ops, i), ref_s(ops, i, G))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", sorted(LAPLACIANS), ids=form_id)
def test_nonsymmetric_factor_matches_dense_reference(sphere_small, ellipse,
                                                     name):
    # F (I_n kron U^T) is W^T times the paper's nN x nN ambient operator:
    # its rows are the frame coordinates of the operator's tangent output
    for system, ops in ((sphere_small[2], sphere_small[0]),
                        (ellipse["system"], ellipse["ops"])):
        F = FORMS[name]("NRBF", system, ops.proj)
        r = ops.U.shape[1]
        assert F.shape == (len(ops.G) * ops.N, ops.n * r)
        got = blockwise(ops.U, F.T).T
        want = tangent_range_basis(ops.proj).T @ ref_nonsymmetric(ops, name)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython < 3.11 keeps call arguments alive on "
                           "the caller's stack")
def test_nonsymmetric_hodge_holds_no_ambient_block():
    # the NRBF form and its solve work on the d N = 2 N frame rows: their
    # traced peak, 2.04 n N x n r words with the derivative factors built
    # inside the form (measured; 4.51 when the factor and H_i, S_i had n N
    # rows), leaves no room for one n N x n r array
    cloud = sample_manifold(Sphere(), 600, seed=0, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    block = 8 * proj.n * system.N * proj.n * system.rank_L
    tracemalloc.start()
    try:
        solve_nonsymmetric(hodge("NRBF", system, proj), basis=system.U,
                           range_basis=proj.frames, k=120)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block


def test_nonsymmetric_factor_holds_no_trial_block():
    # on GeneralTorus(2, 21) the trial dimension p = n r is 21 r: the Hodge
    # factor at N = 80 (r = 80) traced 46.4 MiB when it stacked p x p
    # blocks (one is 21.5 MiB); accumulating every term on N rows it holds
    # 6.37 N p words (measured), the d N x p factor and the derivative
    # factors it builds among them
    cloud = sample_manifold(GeneralTorus(2.0, 21), 80, seed=0,
                            mode="random_intrinsic")
    system = build_system(cloud, KernelModel("inverse_quadratic", 0.5))
    proj = analytic_projection(cloud)
    p = proj.n * system.rank_L
    tracemalloc.start()
    try:
        hodge("NRBF", system, proj)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * p * p
    assert peak < 6.5 * 8 * system.N * p


def nontrivial(values, cutoff):
    return values[np.abs(values) >= cutoff]


def assert_same_values(got, want, scale):
    # every value of each list lies within 1e-10 scale of one of the other
    assert len(got) == len(want)
    gap = np.abs(got[:, None] - want[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-10 * scale


def dense_form(ops, q, method, name):
    """The dense operator (NRBF) or dense pencil (SRBF) for one study."""
    if name == "lb" and method == "NRBF":
        G = [ambient_gradient(ops, i) @ ops.U.T for i in range(ops.n)]
        return -sum(Gi @ Gi for Gi in G)
    if name == "lb":
        D = [Ga @ ops.U.T for Ga in ops.G]
        return GeneralizedPair(A=sum(Da.T @ (Da / q[:, None]) for Da in D),
                               B_diag=1.0 / q, factor=np.eye(ops.N))
    if method == "NRBF":
        return ref_nonsymmetric(ops, name)
    W = tangent_range_basis(ops.proj).toarray()
    return GeneralizedPair(A=W.T @ ambient_pencil(ops, q, name) @ W,
                           B_diag=np.tile(1.0 / q, 2),
                           factor=np.eye(2 * ops.N))


@pytest.mark.parametrize("method", ["NRBF", "SRBF"])
@pytest.mark.parametrize("name", ["lb"] + sorted(LAPLACIANS), ids=form_id)
def test_reduced_spectrum_matches_dense_solve(sphere_small, method, name):
    ops, q, system = sphere_small
    U = ops.U
    dense = dense_form(ops, q, method, name)
    T = None if name == "lb" else ops.proj.frames
    if method == "NRBF":
        F = laplace_beltrami_nonsymmetric(ops) if name == "lb" else \
            FORMS[name]("NRBF", system, ops.proj)
        res = solve_nonsymmetric(F, basis=U, k=len(F), range_basis=T)
        full = np.linalg.eigvals(dense)
    else:
        pair = laplace_beltrami_symmetric(system, ops.proj, q) \
            if name == "lb" else FORMS[name]("SRBF", system, ops.proj, q)
        res = solve_symmetric(pair, len(pair.B_diag))
        full = solve_symmetric(dense, len(dense.B_diag)).all_values
    m = 1 if name == "lb" else 3
    assert res.solve_dim == m * U.shape[1]
    assert res.structural_zeros == len(full) - res.solve_dim
    assert np.sum(res.all_values == 0.0) >= res.structural_zeros
    scale = np.abs(full).max()
    assert_same_values(nontrivial(res.all_values, res.trivial_cutoff),
                       nontrivial(full, res.trivial_cutoff), scale)
    if method == "NRBF":
        # lifted vectors (through the frames for a vector field) are unit
        # eigenvectors of the dense operator; near the trivial cutoff the
        # residual sits at eps |L|, as it does for a dense eig, so the
        # relative bound carries that floor
        V = res.vectors[:, ~res.trivial]
        if T is not None:
            V = lift(T, V)
        lam = res.nontrivial_values()
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-12)
        resid = np.linalg.norm(dense @ V - V * lam[None, :], axis=0)
        floor = 1e-13 * np.linalg.norm(dense, 2)
        assert np.all(resid <= 1e-8 * np.abs(lam) + floor)


# -- covariant derivative -------------------------------------------------------


def test_plane_covariant_constant_field():
    _, proj, system, ops, (t1, t2) = plane_setup()
    Y = np.tile(t1 + 0.5 * t2, (ops.N, 1))
    U = np.tile(0.3 * t1, (ops.N, 1))
    out = covariant_derivative(system, proj, U, Y)
    assert out.shape == (ops.N, 3)
    assert np.abs(out).max() <= 1e-6


def test_covariant_derivative_matches_ambient_reference(monkeypatch):
    # P sum_k U^k D_k Y: the ambient derivative along each coordinate axis,
    # contracted with U, equals the one derivative along U, streamed at the
    # default row blocks and at one row per block
    cloud = sample_manifold(Sphere(), 200, seed=2, mode="random_area")
    proj = analytic_projection(cloud)
    system = build_system(cloud, KernelModel("inverse_quadratic", 1.0))
    x, y, z = cloud.points.T
    U = np.column_stack([-y, x, 0.0 * z])
    Y = np.column_stack([z, x * y, 1.0 + x])
    D = np.empty((3,) + system.U.shape)
    for rows, block in rbf.derivative_blocks(
            system, np.broadcast_to(np.eye(3), (200, 3, 3))):
        D[:, rows] = block
    coeffs = system.U.T @ Y
    W = sum(U[:, k][:, None] * (D[k] @ coeffs) for k in range(3))
    want = np.matmul(proj.mats, W[:, :, None])[:, :, 0]
    # the two orders of summation differ by rounding amplified by Phi^+
    tol = 10 * np.finfo(float).eps * system.sigma[0] / system.sigma[-1]
    for block_bytes in (rbf.ROW_BLOCK_BYTES, 8 * system.N):
        monkeypatch.setattr(rbf, "ROW_BLOCK_BYTES", block_bytes)
        got = covariant_derivative(system, proj, U, Y)
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
    assert len(list(rbf.row_blocks(system.N))) == system.N


def test_ellipse_covariant_analytic_projection(ellipse):
    # nabla_U U has intrinsic coefficient u1 * u1_cov
    want = (ellipse["u1"] * ellipse["cov11"])[:, None] * ellipse["xp"]
    got = covariant_derivative(ellipse["system"], ellipse["proj"],
                               ellipse["U"], ellipse["U"])
    assert np.abs(got - want)[:, 0].max() <= 1e-4


def test_ellipse_covariant_estimated_projection(ellipse):
    want = (ellipse["u1"] * ellipse["cov11"])[:, None] * ellipse["xp"]
    phat = second_order_svd(ellipse["cloud"], K=6, d=1)
    got = covariant_derivative(ellipse["system"], phat,
                               ellipse["U"], ellipse["U"])
    assert np.abs(got - want)[:, 0].max() <= 1e-2
