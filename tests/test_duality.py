import itertools
import sys

import numpy as np
import pytest

from cp_calculus.cpmap import (
    CpMap,
    ChoiOperator,
    apply,
    add,
    canonicalize,
    compose,
    from_choi,
    is_channel,
    is_quantum_operation,
    kraus_stack,
    scale,
    to_choi,
    to_stinespring,
)
from cp_calculus.duality import (
    FaithfulState,
    ReferenceChannel,
    faithful_channel,
    faithful_rn,
    jam_apply,
    jam_compose,
    jam_forward,
    jam_is_operation,
    reference_channel,
)
from cp_calculus.errors import DimMismatch, DimensionLimit, NotPsd, ShapeMismatch
from cp_calculus.numerics import op_norm, partial_trace
from cp_calculus.radon import dominates, rn_derivative
from helpers import (
    heisenberg_sum,
    matrix_units,
    rand_channel,
    rand_complex,
    rand_cp_map,
    rand_operation,
    rand_psd,
    rand_unitary,
    reference_faithful_rn,
    reference_jam_apply,
    reference_psd_leq,
    reference_to_choi,
)

RNG = np.random.default_rng(20240821)


def test_reference_channel_action():
    phi = reference_channel(2, 2)
    assert isinstance(phi, ReferenceChannel)
    assert (phi.m, phi.n) == (2, 2)
    sigma_z = np.diag([1.0, -1.0])
    assert np.allclose(apply(phi, sigma_z), np.zeros((2, 2)), atol=1e-14)
    assert np.allclose(apply(phi, np.eye(2)), np.eye(2), atol=1e-14)
    assert is_channel(phi)
    assert len(phi.kraus) == 4


def test_reference_channel_scalar_input():
    phi = reference_channel(1, 3)
    a = np.array([[2.5 - 1.0j]])
    assert np.allclose(apply(phi, a), (2.5 - 1.0j) * np.eye(3), atol=1e-14)


def test_reference_channel_choi_is_identity():
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        phi = reference_channel(m, n)
        assert np.allclose(to_choi(phi).matrix, np.eye(m * n), atol=1e-12)
        # full-rank process operator forces a full environment
        assert to_stinespring(phi).env_dim == m * n


def test_reference_channel_rejects():
    with pytest.raises(ShapeMismatch):
        reference_channel(0, 2)


def test_jam_forward_identity_qubit():
    f = jam_forward(CpMap(2, 2, (np.eye(2),)))
    expected = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for b in (0, 3):
            expected[a, b] = 2.0
    assert np.allclose(f.matrix, expected, atol=1e-14)
    assert abs(np.linalg.norm(f.matrix, 2) - 4.0) < 1e-12


def test_jam_forward_of_reference_is_identity():
    f = jam_forward(reference_channel(3, 2))
    assert np.allclose(f.matrix, np.eye(6), atol=1e-12)


def test_jam_forward_window_for_operations():
    # 0 <= F <= m^2 for quantum operations
    for _ in range(20):
        m = int(RNG.integers(2, 4))
        n = int(RNG.integers(2, 4))
        t = rand_operation(RNG, m, n)
        w = np.linalg.eigvalsh(jam_forward(t).matrix)
        assert w[0] >= -1e-9
        assert w[-1] <= m * m + 1e-9


def test_jam_forward_accepts_unnormalized_maps():
    # no normalisation is assumed: maps with ||T(1)|| > 1 pass through
    t = rand_cp_map(RNG, 3, 2, norm=7.5)
    f = jam_forward(t)
    assert np.linalg.norm(f.matrix, 2) > 9.0


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
@pytest.mark.parametrize("kind", ["channel", "operation", "norm7.5"])
def test_jam_forward_is_reference_derivative(m, n, kind):
    # F / c is the derivative density of t against c times the reference
    # channel, rotated from the canonical to the natural environment
    rng = np.random.default_rng([m, n])
    t = {
        "channel": lambda: rand_channel(rng, m, n),
        "operation": lambda: rand_operation(rng, m, n),
        "norm7.5": lambda: rand_cp_map(rng, m, n, norm=7.5),
    }[kind]()
    f = jam_forward(t).matrix
    c = m * m * max(1.0, op_norm(apply(t, np.eye(m))) * (1.0 + 1e-12))
    base = scale(reference_channel(m, n), c)
    assert dominates(t, base)
    deriv = rn_derivative(t, base)
    # the natural family is orthogonal with equal norms, so the frame
    # change u to the canonical environment is exactly unitary
    w_canon = kraus_stack(canonicalize(base).kraus)
    u = (m / c) * (kraus_stack(base.kraus).conj().T @ w_canon)
    nat = u @ deriv.matrix @ u.conj().T
    assert op_norm(nat - f / c) <= 1e-9 * max(1.0, op_norm(f) / c)


def test_jam_apply_matches_action():
    for _ in range(10):
        m = int(RNG.integers(1, 5))
        n = int(RNG.integers(1, 5))
        t = rand_cp_map(RNG, m, n)
        f = jam_forward(t)
        for unit in matrix_units(m):
            dev = np.max(np.abs(jam_apply(f, unit) - heisenberg_sum(t.kraus, unit)))
            assert dev < 1e-10 * max(1.0, np.linalg.norm(f.matrix, 2))


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
def test_jam_apply_matches_dense_layout(m, n):
    # one contraction over F's input indices in place of the dense
    # (1 (x) a^T) F; the summation order differs, so only the last bits move
    for seed in range(3):
        rng = np.random.default_rng([seed, m, n])
        f = jam_forward(rand_cp_map(rng, m, n))
        a = rand_complex(rng, m, m)
        ref = reference_jam_apply(f, a)
        assert np.max(np.abs(jam_apply(f, a) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_jam_apply_identity_round_trip():
    f = jam_forward(CpMap(2, 2, (np.eye(2),)))
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(jam_apply(f, sigma_x), sigma_x, atol=1e-12)


def test_jam_apply_on_identity_input_is_marginal():
    t = rand_cp_map(RNG, 3, 2)
    f = jam_forward(t)
    lhs = jam_apply(f, np.eye(3))
    rhs = partial_trace(f.matrix, "second", 2, 3) / 3
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(lhs, apply(t, np.eye(3)), atol=1e-10)


def test_jam_apply_shape_check():
    f = jam_forward(rand_cp_map(RNG, 2, 3))
    with pytest.raises(ShapeMismatch):
        jam_apply(f, np.eye(3))


def test_jam_is_operation_boundary():
    fid = jam_forward(CpMap(2, 2, (np.eye(2),)))
    assert jam_is_operation(fid)
    assert np.allclose(
        partial_trace(fid.matrix, "second", 2, 2), 2.0 * np.eye(2), atol=1e-14
    )
    doubled = to_choi(scale(CpMap(2, 2, (np.eye(2),)), 2.0))
    assert not jam_is_operation(doubled)


def test_jam_is_operation_agrees_with_kraus_test():
    for _ in range(30):
        m = int(RNG.integers(2, 4))
        n = int(RNG.integers(2, 4))
        if RNG.random() < 0.5:
            t = rand_operation(RNG, m, n)
        else:
            t = rand_cp_map(RNG, m, n, norm=float(RNG.uniform(1.1, 3.0)))
        assert jam_is_operation(jam_forward(t)) == is_quantum_operation(t)


def test_jam_compose_identity_neutral():
    t = rand_cp_map(RNG, 2, 2)
    f = jam_forward(t)
    fid = jam_forward(CpMap(2, 2, (np.eye(2),)))
    assert np.allclose(jam_compose(fid, f).matrix, f.matrix, atol=1e-10)
    assert np.allclose(jam_compose(f, fid).matrix, f.matrix, atol=1e-10)


def test_jam_compose_two_path():
    for _ in range(10):
        m, n, d = (int(x) for x in RNG.integers(2, 4, size=3))
        t1 = rand_cp_map(RNG, m, n)
        t2 = rand_cp_map(RNG, n, d)
        via_f = jam_compose(jam_forward(t2), jam_forward(t1))
        via_kraus = jam_forward(compose(t2, t1))
        scale_ref = max(1.0, np.linalg.norm(via_kraus.matrix, 2))
        assert np.max(np.abs(via_f.matrix - via_kraus.matrix)) < 1e-10 * scale_ref
        assert (via_f.dim_in, via_f.dim_out) == (m, d)


@pytest.mark.parametrize("m, n, d", list(itertools.permutations((2, 3, 4))))
def test_jam_compose_index_order(m, n, d):
    # distinct dimensions, so a swapped reshape or transpose axis fails
    rng = np.random.default_rng(100 * m + 10 * n + d)
    t1, t2 = rand_cp_map(rng, m, n), rand_cp_map(rng, n, d)
    got = jam_compose(jam_forward(t2), jam_forward(t1)).matrix
    want = jam_forward(compose(t2, t1)).matrix
    assert got.shape == want.shape == (m * d, m * d)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # _trusted_choi takes the result as it is, so it must be exactly Hermitian
    assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (1, 4), (4, 1)])
def test_jam_apply_index_order(m, n):
    rng = np.random.default_rng(10 * m + n)
    t = rand_cp_map(rng, m, n)
    a = rand_complex(rng, m, m)
    want = apply(t, a)
    assert np.abs(jam_apply(jam_forward(t), a) - want).max() <= 1e-12 * np.abs(want).max()


def test_jam_compose_associative():
    t1 = rand_operation(RNG, 2, 3)
    t2 = rand_operation(RNG, 3, 2)
    t3 = rand_operation(RNG, 2, 2)
    f1, f2, f3 = jam_forward(t1), jam_forward(t2), jam_forward(t3)
    left = jam_compose(f3, jam_compose(f2, f1))
    right = jam_compose(jam_compose(f3, f2), f1)
    assert np.max(np.abs(left.matrix - right.matrix)) < 1e-9


def test_jam_compose_dim_mismatch():
    f1 = jam_forward(rand_cp_map(RNG, 2, 3))
    f2 = jam_forward(rand_cp_map(RNG, 2, 2))
    with pytest.raises(DimMismatch):
        jam_compose(f2, f1)


def test_jam_forward_conic_linearity():
    s = rand_cp_map(RNG, 2, 3)
    t = rand_cp_map(RNG, 2, 3)
    mixed = add(scale(s, 0.7), scale(t, 1.9))
    expected = 0.7 * jam_forward(s).matrix + 1.9 * jam_forward(t).matrix
    assert np.allclose(jam_forward(mixed).matrix, expected, atol=1e-10)


def test_jam_rank_equals_minimal_environment():
    for rank in range(1, 7):
        t = rand_cp_map(RNG, 2, 3, n_kraus=rank)
        f = jam_forward(t)
        w = np.linalg.eigvalsh(f.matrix)
        numerical_rank = int(np.sum(w > 1e-10 * max(1.0, w[-1])))
        assert numerical_rank == to_stinespring(t).env_dim


def test_jam_round_trips():
    # map -> operator -> map and operator -> map -> operator
    t = rand_cp_map(RNG, 3, 2)
    back = from_choi(jam_forward(t))
    for unit in matrix_units(3):
        assert np.max(np.abs(apply(back, unit) - apply(t, unit))) < 1e-10
    raw = rand_psd(RNG, 6)
    f = ChoiOperator(3, 2, raw)
    again = jam_forward(from_choi(f))
    assert np.max(np.abs(again.matrix - raw)) < 1e-10 * max(1.0, np.linalg.norm(raw, 2))


def test_faithful_state_validation():
    w = FaithfulState(p=np.array([0.25, 0.75]))
    assert w.dim == 2
    assert np.allclose(w.density(), np.diag([0.25, 0.75]), atol=1e-14)
    with pytest.raises(NotPsd):
        FaithfulState(p=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        FaithfulState(p=np.array([0.6, 0.6]))
    with pytest.raises(ShapeMismatch):
        FaithfulState(p=np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        FaithfulState(p=np.array([0.5, 0.5]), basis=np.ones((2, 2)))


def test_faithful_state_rotated_density():
    u = rand_unitary(RNG, 3)
    p = np.array([0.2, 0.3, 0.5])
    w = FaithfulState(p=p, basis=u)
    assert np.allclose(w.density(), (u * p) @ u.conj().T, atol=1e-12)


def test_faithful_channel_uniform_matches_reference():
    w = FaithfulState(p=np.full(3, 1.0 / 3.0))
    fc = faithful_channel(w, 2)
    phi = reference_channel(3, 2)
    for v, ref in zip(fc.kraus, phi.kraus):
        assert np.allclose(v, ref, atol=1e-14)


def test_faithful_channel_action():
    u = rand_unitary(RNG, 2)
    p = np.array([0.8, 0.2])
    w = FaithfulState(p=p, basis=u)
    fc = faithful_channel(w, 3)
    assert is_channel(fc)
    for _ in range(5):
        a = rand_complex(RNG, 2, 2)
        expected = np.sum(p * np.diag(u.conj().T @ a @ u).real) * np.eye(3)
        expected = expected + 1j * np.sum(p * np.diag(u.conj().T @ a @ u).imag) * np.eye(3)
        assert np.allclose(apply(fc, a), expected, atol=1e-12)


def test_faithful_rn_uniform_recovers_process_operator():
    for _ in range(5):
        m = int(RNG.integers(2, 4))
        n = int(RNG.integers(2, 4))
        t = rand_operation(RNG, m, n)
        w = FaithfulState(p=np.full(m, 1.0 / m))
        fr = faithful_rn(t, w)
        assert np.max(np.abs(fr.matrix - jam_forward(t).matrix)) < 1e-12


def test_faithful_rn_of_own_channel():
    w = FaithfulState(p=np.array([0.7, 0.2, 0.1]))
    phi = faithful_channel(w, 2)
    fr = faithful_rn(phi, w)
    assert np.allclose(fr.matrix, np.eye(6), atol=1e-10)
    assert abs(fr.constant - 1.0) < 1e-10


def test_faithful_rn_skewed_identity_bound():
    w = FaithfulState(p=np.array([0.9, 0.1]))
    fr = faithful_rn(CpMap(2, 2, (np.eye(2),)), w)
    # ||F|| = 1/0.9 + 1/0.1 for the identity map, under the 100 cap
    assert abs(fr.constant - (1.0 / 0.9 + 10.0)) < 1e-9
    assert fr.constant <= 100.0


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
@pytest.mark.parametrize("basis", ["standard", "random"])
@pytest.mark.parametrize("p_min", [None, 1e-3, 1e-6])
def test_faithful_rn_matches_entrywise_reference(m, n, basis, p_min):
    rng = np.random.default_rng(100 * m + n)
    p = rng.dirichlet(np.ones(m))
    if p_min is not None:
        p[0] = p_min
        p = p / p.sum()
    w = FaithfulState(p=p, basis=None if basis == "standard" else rand_unitary(rng, m))
    t = rand_cp_map(rng, m, n)
    fr = faithful_rn(t, w)
    ref, ref_constant = reference_faithful_rn(t, w)
    assert np.abs(fr.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(fr.constant - ref_constant) <= 1e-12 * ref_constant


def test_faithful_rn_extreme_weights():
    # sqrt(1e-21) is below RANK_TOL times the largest singular value of the
    # faithful channel's Kraus stack; the density needs the exact inverse
    w = FaithfulState(p=np.array([1e-21, 1.0 - 1e-21]))
    fr = faithful_rn(CpMap(2, 2, (np.eye(2),)), w)
    assert fr.constant == pytest.approx(1e21 + 1.0, rel=1e-12)


def test_faithful_rn_refuses_an_overflowed_density():
    # T(1) = 1e300 is finite, but X = (1 (x) B^-1) v has entries 1e160, so
    # X X* overflows; its limit p_min**-2 ||T(1)|| is inf too, so the density
    # itself must be refused, as to_choi refuses an overflowed product, and
    # numpy's overflow warning (an error in this suite) must not escape
    w = FaithfulState(p=np.array([1e-20, 1.0 - 1e-20]))
    with pytest.raises(ShapeMismatch, match="^matrix entries must be finite$"):
        faithful_rn(CpMap(2, 2, (1e150 * np.eye(2),)), w)
    # the returned density is read-only, as a process operator's matrix is
    fr = faithful_rn(CpMap(2, 2, (np.eye(2),)), w)
    assert not fr.matrix.flags.writeable


def test_faithful_rn_inverts_only_the_basis_block(monkeypatch):
    # pinv(W) is the inverse of W's one m x m diagonal block, so no SVD of
    # the stack is taken: the only SVDs left are the two norms, which need
    # no singular vectors
    rng = np.random.default_rng(7)
    w = FaithfulState(p=rng.dirichlet(np.ones(3)), basis=rand_unitary(rng, 3))
    t = rand_cp_map(rng, 3, 2)
    svd, inv, uv, inverted = np.linalg.svd, np.linalg.inv, [], []

    def recorded_svd(*args, **kwargs):
        uv.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    def recorded_inv(a):
        inverted.append(np.shape(a))
        return inv(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("faithful_rn took a pseudo-inverse or a solve")

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "inv", recorded_inv)
    for name in ("pinv", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    faithful_rn(t, w)
    assert uv and not any(uv)
    assert inverted == [(3, 3)]


@pytest.mark.parametrize("m, n", [(2, 3), (3, 2), (4, 4)])
def test_faithful_rn_basis_orthonormal_within_tolerance(m, n):
    # FaithfulState accepts a basis orthonormal to 1e-8; pinv(W) is then not
    # W* scaled by 1/p, and the density must still be pinv(W) C pinv(W)*,
    # whose reconstruction misses C only by rounding
    rng = np.random.default_rng(10 * m + n)
    e = rand_complex(rng, m, m)
    basis = rand_unitary(rng, m) + 3e-9 * e / np.linalg.norm(e, 2)
    w = FaithfulState(p=rng.dirichlet(np.ones(m)), basis=basis)
    assert np.linalg.norm(basis @ basis.conj().T - np.eye(m), 2) > 1e-9
    t = rand_cp_map(rng, m, n)
    wp = np.linalg.pinv(kraus_stack(faithful_channel(w, n).kraus))
    ref = wp @ (to_choi(t).matrix / m) @ wp.conj().T
    fr = faithful_rn(t, w)
    assert np.abs(fr.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
@pytest.mark.parametrize("basis", ["standard", "random"])
@pytest.mark.parametrize("thin", [True, False])
def test_faithful_rn_constant_dominates(m, n, basis, thin):
    # c * phi - t is CP for c = faithful_rn's constant, the top of t's density
    # on phi's environment; the library takes this from that construction, so
    # the dense reference order checks it, and that no smaller c would do
    rng = np.random.default_rng([m, n, basis == "random", thin])
    b = None if basis == "standard" else rand_unitary(rng, m)
    w = FaithfulState(p=rng.dirichlet(np.ones(m)), basis=b)
    t = rand_cp_map(rng, m, n, n_kraus=1 if thin else m * n)
    c = faithful_rn(t, w).constant
    ct, cphi = (reference_to_choi(x).matrix for x in (t, faithful_channel(w, n)))
    assert reference_psd_leq(ct, c * cphi)
    assert not reference_psd_leq(ct, (1.0 - 1e-3) * c * cphi)


@pytest.mark.parametrize("n_kraus", [1, 12], ids=["thin", "wide"])
def test_faithful_rn_needs_no_channel_and_no_process_operator(monkeypatch, choi_calls, n_kraus):
    # the faithful channel's stack is square and invertible, so every map has
    # its density there: X = (1 (x) B^-1) v from one m x m inverse, thin or
    # wide t alike, with no channel family, process operator or residual
    def banned(*args, **kwargs):
        raise AssertionError("faithful_rn built the channel or took radon's density")

    for name, module in list(sys.modules.items()):
        for fn in ("faithful_channel", "_trace_channel", "_density", "_prepare"):
            if name.startswith("cp_calculus.") and hasattr(module, fn):
                monkeypatch.setattr(module, fn, banned)
    inv, inverted = np.linalg.inv, []

    def recorded_inv(a):
        inverted.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded_inv)
    rng = np.random.default_rng(35)
    w = FaithfulState(p=rng.dirichlet(np.ones(3)), basis=rand_unitary(rng, 3))
    t = rand_cp_map(rng, 3, 4, n_kraus=n_kraus)
    fr = faithful_rn(t, w)
    assert choi_calls == []
    assert inverted == [(3, 3)]
    ref, ref_constant = reference_faithful_rn(t, w)
    assert np.abs(fr.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(fr.constant - ref_constant) <= 1e-12 * ref_constant


def test_environment_past_max_dim_refused_before_allocating(monkeypatch):
    # m * n = 16386 is past MAX_DIM: faithful_rn, reference_channel and
    # faithful_channel share the guard, which runs before any array the
    # environment's size, or the m x m inverse, is formed
    t = CpMap(2, 8193, (np.ones((2, 8193)) / 128.0,))
    w = FaithfulState(p=np.array([0.5, 0.5]))

    def allocates(*args, **kwargs):
        raise AssertionError("an array was formed")

    for name in ("zeros", "eye"):
        monkeypatch.setattr(np, name, allocates)
    monkeypatch.setattr(np.linalg, "inv", allocates)
    for build in (
        lambda: faithful_rn(t, w),
        lambda: reference_channel(2, 8193),
        lambda: faithful_channel(w, 8193),
    ):
        with pytest.raises(DimensionLimit) as info:
            build()
        assert str(info.value) == "environment dimension 16386 exceeds 16384"


def test_faithful_rn_dim_mismatch():
    w = FaithfulState(p=np.array([0.5, 0.5]))
    with pytest.raises(DimMismatch):
        faithful_rn(rand_cp_map(RNG, 3, 2), w)
