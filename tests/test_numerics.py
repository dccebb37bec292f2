import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp_calculus import numerics
from cp_calculus.cpmap import ChoiOperator, scale
from cp_calculus.errors import ShapeMismatch
from cp_calculus.radon import dominates
from helpers import rand_cp_map, reference_herm_eig, reference_psd_leq

RNG = np.random.default_rng(20240817)


def rand_matrix(rows, cols, rng=RNG):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_hermitian(d, rng=RNG):
    m = rand_matrix(d, d, rng)
    return (m + m.conj().T) / 2


def rand_psd(d, rng=RNG):
    m = rand_matrix(d, d, rng)
    return m @ m.conj().T


def rand_unitary(d, rng=RNG):
    q, r = np.linalg.qr(rand_matrix(d, d, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_partial_trace_of_product():
    a = rand_hermitian(3)
    b = rand_hermitian(2)
    m = np.kron(a, b)
    assert np.allclose(numerics.partial_trace(m, "first", 3, 2), np.trace(a) * b)
    assert np.allclose(numerics.partial_trace(m, "second", 3, 2), np.trace(b) * a)


def test_partial_trace_preserves_trace():
    for _ in range(20):
        d1, d2 = RNG.integers(1, 5, size=2)
        m = rand_matrix(d1 * d2, d1 * d2)
        t0 = np.trace(m)
        for over in ("first", "second"):
            t1 = np.trace(numerics.partial_trace(m, over, d1, d2))
            assert abs(t1 - t0) <= 1e-12 * max(1.0, abs(t0))


def test_partial_trace_shape_check():
    with pytest.raises(ShapeMismatch):
        numerics.partial_trace(np.eye(5), "first", 2, 2)


def test_herm_eig_reconstructs():
    for d in (1, 2, 5, 8):
        m = rand_hermitian(d)
        e = numerics.herm_eig(m)
        rebuilt = (e.vectors * e.values) @ e.vectors.conj().T
        assert numerics.op_norm(rebuilt - m) <= numerics.recon_tol(numerics.op_norm(m))
        assert np.all(np.diff(e.values) <= 0)
        assert np.allclose(e.vectors.conj().T @ e.vectors, np.eye(d), atol=1e-12)


def test_herm_eig_phase_fix():
    m = rand_hermitian(6)
    e = numerics.herm_eig(m)
    for k in range(6):
        v = e.vectors[:, k]
        lead = next(x for x in v if abs(x) > numerics.EPS_PHASE)
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def test_herm_eig_deterministic():
    m = rand_hermitian(7)
    e1 = numerics.herm_eig(m)
    e2 = numerics.herm_eig(m)
    assert np.array_equal(e1.values, e2.values)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_herm_eig_identity_order():
    # degenerate spectrum: standard basis must come back in natural order
    e = numerics.herm_eig(np.eye(4))
    assert np.array_equal(e.vectors, np.eye(4))


@st.composite
def tie_heavy_hermitian(draw):
    """Hermitian matrices with repeated eigenvalues, plus generic ones."""
    kind = draw(st.sampled_from(["diagonal", "kron", "zero", "permutation", "flat", "random"]))
    n = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "diagonal":
        return np.diag(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    if kind == "kron":
        return np.kron(rand_hermitian(n, rng), np.eye(2))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "permutation":
        p = np.eye(n)[rng.permutation(n)]
        return p + p.T
    if kind == "flat":
        # a*1 + b*J commutes with every permutation: one eigenvalue n-1 times
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        return a * np.eye(n) + b * np.ones((n, n))
    return rand_hermitian(n, rng)


@settings(max_examples=300, deadline=None)
@given(m=tie_heavy_hermitian())
def test_herm_eig_matches_reference(m):
    values, vectors = reference_herm_eig(m)
    e = numerics.herm_eig(m)
    assert np.array_equal(e.values, values)
    assert np.array_equal(e.vectors, vectors)


def test_herm_eig_takes_hermitian_part():
    # herm_eig checks nothing: it decomposes the Hermitian part of its input
    for m in (np.array([[0.0, 1.0], [0.0, 0.0]]), rand_matrix(5, 5)):
        e = numerics.herm_eig(m)
        h = numerics.herm_eig(numerics.hermitize(m))
        assert np.array_equal(e.values, h.values)
        assert np.array_equal(e.vectors, h.vectors)


def test_psd_leq_hand_cases():
    assert not numerics.psd_leq(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    a = rand_hermitian(4)
    assert numerics.psd_leq(a, a + 1e-12 * np.eye(4))
    assert numerics.psd_leq(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]), tol=0.0)


def test_psd_leq_transitive_on_exact_fixtures():
    a = np.diag([0.0, 1.0, 2.0])
    b = np.diag([1.0, 1.0, 3.0])
    c = np.diag([1.0, 2.0, 3.0])
    assert numerics.psd_leq(a, b, tol=0.0)
    assert numerics.psd_leq(b, c, tol=0.0)
    assert numerics.psd_leq(a, c, tol=0.0)


# is_psd decides with two Cholesky factorizations and takes eigvalsh only in
# a rounding band, so its verdicts are held to the one-eigvalsh rule it
# replaced, reference_psd_leq, over the inputs where they could part: ties,
# rank-deficient differences, tol = 0 and pairs on both sides of the line.
SIDES = [1, 4, 16, 31, 32, 33, 48, 64, 128, 256]


@st.composite
def psd_pairs(draw):
    """(a, b, tol) for psd_leq: a random Hermitian a and b = a + d, with d of
    tie-heavy small-integer spectrum, rank-deficient PSD, or top eigenvalue
    ``size`` and lowest one a factor off the line at -EPS_PSD * max(1, size);
    or (s, t) = ((1 +- eps) t, t) for a random PSD t of any rank, on a log
    grid of eps that crosses EPS_PSD."""
    n = draw(st.sampled_from(SIDES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    tol = draw(st.sampled_from([numerics.EPS_PSD, 0.0]))
    size = 10.0 ** draw(st.sampled_from([-3.0, 0.0, 3.0]))
    kind = draw(st.sampled_from(["ties", "rank_deficient", "line", "scaled"]))
    if kind == "scaled":
        g = rand_matrix(n, draw(st.sampled_from([1, max(1, n // 2), n])), rng)
        t = size * (g @ g.conj().T) / n
        eps = 10.0 ** draw(st.sampled_from(np.arange(-13.0, -4.5, 0.5).tolist()))
        return (1.0 + draw(st.sampled_from([1.0, -1.0])) * eps) * t, t, tol
    if kind == "ties":
        lam = size * rng.integers(draw(st.sampled_from([-1, 0])), 3, size=n)
    elif kind == "rank_deficient":
        lam = size * np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
    else:
        lam = size * rng.random(n)
        lam[0] = size
        factor = draw(st.sampled_from([0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0]))
        lam[-1] = -factor * numerics.EPS_PSD * max(1.0, size)
    u = rand_unitary(n, rng)
    a = rand_hermitian(n, rng)
    return a, a + (u * lam) @ u.conj().T, tol


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(pair=psd_pairs())
def test_psd_leq_matches_the_eigvalsh_rule(pair):
    a, b, tol = pair
    assert numerics.psd_leq(a, b, tol) is reference_psd_leq(a, b, tol)


def _diag(top, low, n=32, fill=0.0):
    """diag(top, fill, ..., fill, low) of side n, where is_psd factorizes."""
    return np.diag([top] + [fill] * (n - 2) + [low]).astype(complex)


@pytest.mark.parametrize(
    "d, verdict",
    [
        # ||d|| = 1 and ||d||_F = sqrt(31): a pass shift at tol * ||d||_F would accept
        (_diag(1.0, -2e-9, fill=1.0), False),
        # ||d|| < 1, so the tolerance is tol * 1: tol * ||d|| would reject
        (_diag(0.5, -0.8e-9), True),
        (_diag(0.5, -1.2e-9), False),
        # inside the rounding band below tol * 1, which eigvalsh decides
        (_diag(0.5, -(1.0 - 1e-7) * 1e-9), True),
        (_diag(3.0, -2.9e-9), True),
        (_diag(3.0, -3.1e-9), False),
    ],
    ids=[
        "frobenius_scale",
        "unit_floor",
        "unit_floor_fails",
        "unit_floor_band",
        "norm_scale",
        "norm_scale_fails",
    ],
)
def test_psd_rule_scale_on_exact_spectra(d, verdict):
    # diagonal d factor exactly, so each verdict is the exact one
    assert numerics.is_psd(d) is verdict is reference_psd_leq(0 * d, d)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["optimistic", "pessimistic"])
def test_psd_rule_survives_the_cholesky_backward_error(monkeypatch, sign):
    # a Cholesky that errs by Higham's backward-error bound n(n+1) u ||A||,
    # always toward success or always toward failure; the rule's slack keeps
    # each verdict on d = diag(1, 0, ..., 0, -x), with x half that bound off
    # the line, where ||d|| = ||d||_F leaves the failing side no headroom
    def cholesky(a):
        n = len(a)
        err = n * (n + 1) * 2.0**-53 * np.linalg.norm(a, 2)
        if np.linalg.eigvalsh(a)[0] + sign * err <= 0.0:
            raise np.linalg.LinAlgError("not positive definite")
        return a

    tol = numerics.EPS_PSD
    d = _diag(1.0, -(tol + sign * 16 * 33 * 2.0**-53))
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    assert numerics.is_psd(d, tol) is (sign < 0) is reference_psd_leq(0 * d, d, tol)


def _counting_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_clear_verdicts_take_no_eigvalsh(monkeypatch):
    rng = np.random.default_rng(26)
    t = rand_cp_map(rng, 16, 16, n_kraus=8)
    bad = rand_cp_map(rng, 16, 16, n_kraus=256)
    f = rand_psd(256, rng)
    calls = _counting_eigvalsh(monkeypatch)
    assert dominates(scale(t, 0.5), t)
    assert not dominates(bad, t)
    ChoiOperator(16, 16, f)
    # ||d|| < 1 below the line by 0.8 tol: passed on the floor of 1, not on ||d||
    assert numerics.is_psd(_diag(0.5, -0.8e-9))
    assert calls == []
    # below side 32, and at tol = 0, which leaves no pass window, eigvalsh decides
    assert numerics.psd_leq(0.5 * f[:31, :31], f[:31, :31])
    assert numerics.psd_leq(0.5 * f, f, tol=0.0)
    assert calls == [(31, 31), (256, 256)]


def test_psd_rank_counts_the_leading_cut():
    assert numerics.psd_rank(np.array([2.0, 1.0, 2e-10, 1e-10, 0.0])) == 3
    assert numerics.psd_rank(np.array([2.0, 1.0, 0.5]), tol=0.5) == 2
    assert numerics.psd_rank(np.array([0.0, -1.0])) == 0
    assert numerics.psd_rank(np.array([-1e-17])) == 0
    assert numerics.psd_rank(np.array([])) == 0


def test_psd_sqrt_squares_back():
    m = rand_psd(5)
    r = numerics.psd_sqrt(m)
    assert np.allclose(r @ r, m, atol=1e-9 * max(1.0, numerics.op_norm(m)))
    assert np.allclose(r, r.conj().T)
    assert np.array_equal(numerics.psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


def test_psd_sqrt_clips_rounding():
    # an eigenvalue rounding left below zero counts as 0, not as an error
    r = numerics.psd_sqrt(np.diag([4.0, -1e-14]))
    assert np.array_equal(r, np.diag([2.0, 0.0]))
    # with no positive eigenvalue the root is 0, and no negative reaches sqrt
    assert np.array_equal(numerics.psd_sqrt(-1e-14 * np.eye(2)), np.zeros((2, 2)))


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_psd_sqrt_of_rank_one_projector_is_itself(d):
    # rounding leaves v v*'s zero eigenvalues at 1e-17..1e-15; kept, their
    # roots (about 1e-8) would move the root that far from v v* itself
    for k in range(4):
        v = rand_matrix(d, 1, np.random.default_rng([d, k]))[:, 0]
        p = np.outer(v, v.conj()) / np.vdot(v, v).real
        assert numerics.op_norm(numerics.psd_sqrt(p) - p) <= 1e-14


@st.composite
def residual_checks(draw):
    """(r, tol, c) with ||r|| from 0.1x to 10x the tolerance at ||c||.

    Rank-one residuals with flat columns have ||r|| = sqrt(n) times their
    largest column norm, and scaled unitaries have ||c||_F = sqrt(n) ||c||,
    so factors just above 1 tell a valid bound from either mix-up.  A
    rank-one c has ||c|| = ||c||_F, so factors near 2 probe the failing-side
    bound tol(2 ||c||_F); an overflowing c's squared norms are inf."""
    n = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["flat", "rank_one", "random"]))
    if shape == "random":
        r = rand_matrix(n, n, rng)
    else:
        u, w = rand_matrix(n, 2, rng).T
        if shape == "flat":
            w = np.exp(2j * np.pi * rng.random(n))
        r = np.outer(u, w.conj())
    exponent = st.sampled_from([-2.0, 0.0, 2.0]) | st.floats(min_value=-2.0, max_value=3.0)
    size = 10.0 ** draw(exponent)
    kind = draw(st.sampled_from(["fixed", "unitary", "random", "psd", "rank_one", "overflow"]))
    if kind == "fixed":
        tol, c, target = 1e-9 * size, None, 1e-9 * size
    else:
        if kind == "unitary":
            c = rand_unitary(n, rng)
        elif kind == "psd":
            c = rand_psd(n, rng)
        elif kind == "rank_one":
            c = np.outer(*rand_matrix(2, n, rng))
        else:
            c = rand_matrix(n, n, rng)
        c = c * ((1e160 if kind == "overflow" else size) / numerics.op_norm(c))
        tol, target = numerics.recon_tol, numerics.recon_tol(numerics.op_norm(c))
    factor = draw(
        st.sampled_from([0.1, 0.5, 1.0, 1.1, 1.2, 1.9, 2.0, 2.1, 10.0])
        | st.floats(min_value=0.1, max_value=10.0)
    )
    return r * (factor * target / numerics.op_norm(r)), tol, c


@settings(max_examples=400, deadline=None)
@given(check=residual_checks())
def test_norm_excess_matches_exact_check(check):
    r, tol, c = check
    limit = tol if c is None else tol(numerics.op_norm(c))
    resid = numerics.norm_excess(r, tol, c)
    assert (resid is None) == (numerics.op_norm(r) <= limit)
    if resid is not None:
        assert type(resid) is float and resid == numerics.op_norm(r)


def _rank_one_boundary_cases(count):
    """Rank-one c whose Frobenius norm rounds below its SVD norm, each with
    a 1 x 1 residual whose norm is exactly tol(||c||)."""
    for seed in range(count):
        u, v = rand_matrix(2, 2, np.random.default_rng(seed))
        c = 10.0 * np.outer(u, v.conj())
        limit = numerics.recon_tol(numerics.op_norm(c))
        r = np.array([[limit]], dtype=complex)
        if np.linalg.norm(c) < numerics.op_norm(c) and numerics.op_norm(r) == limit:
            yield r, c


def test_norm_excess_rank_one_scale_at_the_boundary():
    # the SVD rule passes each residual, so the failing-side bound must not
    # fail it on ||c||_F alone: that is what its factor 2 is for
    cases = list(_rank_one_boundary_cases(200))
    assert cases
    assert all(numerics.norm_excess(r, numerics.recon_tol, c) is None for r, c in cases)


def test_norm_excess_survives_overflowing_column_norms():
    # c's squared column norms overflow; the capped lower bound keeps the
    # pre-test from passing a residual 2x above the tolerance at ||c||
    c = 1e160 * np.eye(2, dtype=complex)
    r = np.diag([2e151, 0.0]).astype(complex)
    assert numerics.norm_excess(r, numerics.recon_tol, c) == numerics.op_norm(r)
    assert numerics.norm_excess(r / 4, numerics.recon_tol, c) is None


def test_norms_hand_values():
    m = np.diag([3.0, -4.0])
    assert numerics.op_norm(m) == pytest.approx(4.0, abs=1e-12)


def test_norms_unitary_invariance():
    m = rand_matrix(4, 4)
    u = rand_unitary(4)
    v = rand_unitary(4)
    assert numerics.op_norm(u @ m @ v) == pytest.approx(numerics.op_norm(m), rel=1e-10)


def test_vec_convention():
    x = rand_matrix(3, 2)
    a = rand_matrix(4, 3)
    b = rand_matrix(2, 5)
    lhs = (a @ x @ b).reshape(-1)
    rhs = np.kron(a, b.T) @ x.reshape(-1)
    assert np.allclose(lhs, rhs, atol=1e-10)
