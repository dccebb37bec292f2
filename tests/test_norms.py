import inspect
import sys

import numpy as np
import pytest

from cp_calculus.cpmap import CpMap, add, apply, canonicalize, scale
from cp_calculus import norms
from cp_calculus.errors import DimMismatch, InvariantViolation, ShapeMismatch
from cp_calculus.duality import jam_forward
from cp_calculus.norms import (
    CommonDilationPair,
    bound_dilation_diff,
    bound_rn,
    cb_norm_cp,
    common_dilation,
    diamond_lower,
    norm_report,
)
from cp_calculus.numerics import EPS_PSD, herm_eig, op_norm, psd_sqrt
from cp_calculus.radon import dominates, rn_derivative
from helpers import (
    ascent_input,
    env_sandwich,
    golden_map,
    rand_channel,
    rand_complex,
    rand_cp_map,
    rand_operation,
    rand_unitary,
    reference_ascend,
    reference_common_dilation,
)

RNG = np.random.default_rng(20240822)

IDENT = CpMap(2, 2, (np.eye(2),))
XCONJ = CpMap(2, 2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))


def test_cb_norm_values():
    t = rand_channel(RNG, 3, 2)
    assert abs(cb_norm_cp(t) - 1.0) < 1e-12
    assert abs(cb_norm_cp(scale(t, 0.7)) - 0.7) < 1e-12
    zero = CpMap(2, 2, (np.zeros((2, 2)),))
    assert cb_norm_cp(zero) == 0.0
    for _ in range(5):
        assert cb_norm_cp(rand_operation(RNG, 2, 3)) <= 1.0 + 1e-12


def test_diamond_perfectly_distinguishable_pair():
    val = diamond_lower(IDENT, XCONJ)
    assert 2.0 - 1e-6 <= val <= 2.0 + 1e-12


def test_diamond_identical_maps():
    t = rand_channel(RNG, 2, 3)
    assert diamond_lower(t, t, restarts=2) == 0.0


def test_diamond_under_two_for_channel_pairs():
    for _ in range(5):
        t1 = rand_channel(RNG, 2, 2)
        t2 = rand_channel(RNG, 2, 2)
        assert diamond_lower(t1, t2, restarts=4) <= 2.0 + 1e-9


def test_diamond_deterministic():
    t1 = rand_channel(RNG, 2, 2)
    t2 = rand_channel(RNG, 2, 2)
    a = diamond_lower(t1, t2, seed=11, restarts=6)
    b = diamond_lower(t1, t2, seed=11, restarts=6)
    c = diamond_lower(t1, t2, seed=11, restarts=6, workers=3)
    assert a == b == c


def test_diamond_ancilla_saturation():
    # the fixed ancilla already saturates the supremum: one more dim is flat
    for _ in range(3):
        t1 = rand_channel(RNG, 2, 3)
        t2 = rand_channel(RNG, 2, 3)
        base = diamond_lower(t1, t2, seed=5, restarts=8)
        wide = diamond_lower(t1, t2, seed=5, restarts=8, ancilla_dim=4)
        assert abs(base - wide) < 1e-6


# (m, n, r, Kraus count): square, 2x3, 3x2 and r != n.  x has rank at most
# min(k1 + k2, m * min(n, r)), so with k1 + k2 >= m * r and r <= n it has
# full rank, no eigenvalue's sign is left to rounding, and the GEMM form
# must follow the dense one step for step.
@pytest.mark.parametrize(
    "m, n, r, k", [(3, 3, 3, 5), (2, 3, 3, 3), (3, 2, 2, 3), (3, 3, 2, 3), (2, 4, 3, 4)]
)
def test_ascend_matches_dense_reference(m, n, r, k):
    for seed in range(3):
        rng = np.random.default_rng([seed, m, n, r, k])
        t1 = rand_channel(rng, m, n, n_kraus=k)
        t2 = rand_operation(rng, m, n, n_kraus=k)
        k1, k2, g = t1.kraus_array, t2.kraus_array, ascent_input(t1, t2)
        want = []
        for ridx in range(4):
            got = norms._ascend(k1, k2, n * r, [np.random.default_rng(ridx)], 200, 1e-10, g=g)
            want.append(reference_ascend(k1, k2, n * r, np.random.default_rng(ridx), 200, 1e-10))
            assert abs(got[0] - want[-1][0]) <= 1e-12
            assert got[1] == want[-1][1]
        # the four restarts as one stack: the best value and the summed steps
        rngs = [np.random.default_rng(ridx) for ridx in range(4)]
        value, steps = norms._ascend(k1, k2, n * r, rngs, 200, 1e-10, g=g)
        assert abs(value - max(v for v, _ in want)) <= 1e-12
        assert steps == sum(s for _, s in want)


def test_ascend_signature():
    # bench/spans.py's hook, which this change does not edit, reads max_iter
    # as args[4] and the iteration count as result[1]; with one call per
    # stack, result[1] is the stack's summed iterations
    params = inspect.signature(norms._ascend).parameters.values()
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional == ["k1", "k2", "dim", "rngs", "max_iter", "tol"]
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["g"]


# (m, n, r, Kraus count, identical maps): full rank; low-rank x with
# k1 + k2 < m * r, whose zero eigenvalues rounding signs; r != n twice;
# 3x1, where dim = 1; 1x3; and identical maps, whose y = 0 leaves every
# row's psi as it is
STACK_CASES = [
    (3, 3, 3, 5, False),
    (3, 2, 2, 2, False),
    (2, 3, 2, 2, False),
    (3, 3, 2, 3, False),
    (3, 1, 1, 2, False),
    (1, 3, 3, 3, False),
    (2, 2, 2, 2, True),
]


@pytest.mark.parametrize("m, n, r, k, same", STACK_CASES)
def test_stacked_restarts_match_each_run_alone(m, n, r, k, same):
    rng = np.random.default_rng([7, m, n, k])
    t1 = rand_channel(rng, m, n, n_kraus=k)
    t2 = t1 if same else rand_operation(rng, m, n, n_kraus=k)
    k1, k2, g = t1.kraus_array, t2.kraus_array, ascent_input(t1, t2)

    def run(ridxs):
        rngs = [np.random.default_rng([3, ridx]) for ridx in ridxs]
        return norms._ascend(k1, k2, n * r, rngs, 200, 1e-10, g=g)

    alone = [run([ridx]) for ridx in range(6)]
    # every prefix and every suffix of the six as one stack: the stack's
    # best value and summed steps must equal those of the lone runs
    for ridxs in [range(j) for j in range(2, 7)] + [range(j, 6) for j in range(5)]:
        value, steps = run(ridxs)
        assert value == max(alone[i][0] for i in ridxs)
        assert steps == sum(alone[i][1] for i in ridxs)


@pytest.mark.parametrize("m, n, r, k, same", STACK_CASES)
def test_stack_boundaries_leave_results_unchanged(monkeypatch, m, n, r, k, same):
    rng = np.random.default_rng([8, m, n, k])
    t1 = rand_channel(rng, m, n, n_kraus=k)
    t2 = t1 if same else rand_operation(rng, m, n, n_kraus=k)
    whole = norms._diamond_search(t1, t2, 4, 7, r, 200, 1e-10)[:2]
    sizes = []

    def recorded(k1, k2, dim, rngs, *args, **kwargs):
        sizes.append(len(rngs))
        return ascend(k1, k2, dim, rngs, *args, **kwargs)

    ascend = norms._ascend
    monkeypatch.setattr(norms, "_ascend", recorded)
    side = max(m, n) * r
    for per_stack, expected in ((1, [1] * 7), (3, [3, 3, 1])):
        monkeypatch.setattr(norms, "STACK_ENTRIES", per_stack * side**2)
        sizes.clear()
        assert norms._diamond_search(t1, t2, 4, 7, r, 200, 1e-10)[:2] == whole
        assert sizes == expected


def test_generators_seeded_when_their_stack_starts(monkeypatch):
    # seven restarts in stacks of three: each stack's generators are created
    # after the previous stack's ascent has returned, and the result is the
    # one the default stacking gives
    rng = np.random.default_rng(31)
    t1, t2 = rand_channel(rng, 2, 2), rand_operation(rng, 2, 2)
    whole = norms._diamond_search(t1, t2, 4, 7, None, 200, 1e-10)[:2]
    events = []
    make, ascend = np.random.default_rng, norms._ascend

    def seeded(seed):
        events.append(("rng", seed[1]))
        return make(seed)

    def recorded(*args, **kwargs):
        result = ascend(*args, **kwargs)
        events.append(("ascend", len(args[3])))
        return result

    monkeypatch.setattr(np.random, "default_rng", seeded)
    monkeypatch.setattr(norms, "_ascend", recorded)
    monkeypatch.setattr(norms, "STACK_ENTRIES", 3 * 4**2)
    assert norms._diamond_search(t1, t2, 4, 7, None, 200, 1e-10)[:2] == whole
    stacks = [range(0, 3), range(3, 6), range(6, 7)]
    assert events == [e for s in stacks for e in [*(("rng", i) for i in s), ("ascend", len(s))]]


def test_stacks_stay_under_the_entry_cap(monkeypatch):
    calls = []

    def recording(name):
        fn = getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            calls.append((name, a.shape))
            return fn(a, *args, **kwargs)

        return recorded

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    rng = np.random.default_rng(16)
    t1, t2 = rand_channel(rng, 16, 16, n_kraus=2), rand_channel(rng, 16, 16, n_kraus=2)
    diamond_lower(t1, t2, restarts=3, max_iter=2)
    assert calls and all(np.prod(s) <= norms.STACK_ENTRIES for _, s in calls)
    assert {s[0] for _, s in calls} == {1}
    # at d = 8 sixteen restarts share a stack, the cap's worth; one
    # iteration takes the eigh of x, then the eigvalsh of y and one solve
    calls.clear()
    t1, t2 = rand_channel(rng, 8, 8, n_kraus=2), rand_channel(rng, 8, 8, n_kraus=2)
    diamond_lower(t1, t2, restarts=20, max_iter=1)
    assert calls == [
        (name, (size, 64, 64)) for size in (16, 4) for name in ("eigh", "eigvalsh", "solve")
    ]


def test_ascend_takes_no_herm_eig(monkeypatch):
    # a tied top eigenvalue of y needs no tie-break: the y half-step keeps
    # psi's projection onto the eigenspace, so no module's herm_eig runs
    assert not hasattr(norms, "herm_eig")

    def banned(m):
        raise RuntimeError("banned call")

    for name, module in list(sys.modules.items()):
        if name.startswith("cp_calculus.") and hasattr(module, "herm_eig"):
            monkeypatch.setattr(module, "herm_eig", banned)
    rng = np.random.default_rng(9)
    t1, t2 = rand_channel(rng, 3, 3), rand_channel(rng, 3, 3)
    assert diamond_lower(t1, t2, restarts=4) > 0.0
    # identical maps make y = 0, whose top eigenvalue is tied
    assert diamond_lower(t1, t1, restarts=2) == 0.0


def _unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _rayleigh(y, psi):
    return np.einsum("bi,bij,bj->b", psi.conj(), y, psi).real


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_toward_top_reaches_the_top_eigenvalue(dim):
    # one shifted solve from a random psi: <psi|y|psi> >= lambda_max -
    # 1e-12 * max|eigenvalue| for top gaps from 1e-12 to 1, at any scale,
    # and never below the starting <psi|y|psi>
    rng = np.random.default_rng([21, dim])
    for gap in 10.0 ** np.arange(-12, 1):
        count = 8
        rest = rng.uniform(-1.0, 0.5, (count, dim - 1))
        ev = np.concatenate([rest, rest.max(axis=1, keepdims=True) + gap], axis=1)
        ev *= 10.0 ** rng.uniform(-6, 6, (count, 1))
        u = np.array([rand_unitary(rng, dim) for _ in range(count)])
        y = (u * ev[:, None, :]) @ u.conj().swapaxes(-1, -2)
        y = (y + y.conj().swapaxes(-1, -2)) / 2
        psi = _unit_rows(rng, count, dim)
        got = norms._toward_top(y, psi)
        scale = np.abs(ev).max(axis=1)
        assert np.allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(_rayleigh(y, got) >= ev.max(axis=1) - 1e-12 * scale)
        assert np.all(_rayleigh(y, got) >= _rayleigh(y, psi) - 1e-14 * scale)


def test_toward_top_keeps_psi_where_y_is_zero():
    rng = np.random.default_rng(22)
    psi = _unit_rows(rng, 3, 4)
    y = np.zeros((3, 4, 4), dtype=complex)
    y[1] = rand_complex(rng, 4, 4) + rand_complex(rng, 4, 4).conj().T
    got = norms._toward_top(y, psi)
    assert np.array_equal(got[[0, 2]], psi[[0, 2]])
    assert not np.allclose(got[1], psi[1])


def test_toward_top_projects_onto_a_tied_top_eigenspace():
    # y's top eigenvalue 3 is threefold; the step returns psi's unit
    # projection onto its eigenspace, so a unitary w inside the eigenspace,
    # which leaves y unchanged, moves the result exactly as it moves psi
    rng = np.random.default_rng(23)
    y = np.diag([3.0, 3.0, 3.0, 1.0, -2.0]).astype(complex)[None]
    w = np.eye(5, dtype=complex)
    w[:3, :3] = rand_unitary(rng, 3)
    for psi in _unit_rows(rng, 4, 5):
        got = norms._toward_top(y, psi[None])[0]
        want = np.concatenate([psi[:3], np.zeros(2)]) / np.linalg.norm(psi[:3])
        assert abs(abs(np.vdot(want, got)) - 1.0) <= 1e-12
        assert np.linalg.norm(got[3:]) <= 1e-12
        turned = norms._toward_top(y, (w @ psi)[None])[0]
        assert abs(abs(np.vdot(w @ got, turned)) - 1.0) <= 1e-12
    # in a rotated basis rounding splits the tie by about 1e-16, and the
    # result still lies in the eigenspace
    u = rand_unitary(rng, 5)
    ty = u @ y[0] @ u.conj().T
    ty = (ty + ty.conj().T) / 2
    got = norms._toward_top(ty[None], _unit_rows(rng, 1, 5))[0]
    assert np.linalg.norm(u[:, 3:].conj().T @ got) <= 1e-12


def test_toward_top_in_one_dimension():
    rng = np.random.default_rng(24)
    psi = _unit_rows(rng, 3, 1)
    y = np.array([2.5, -1e-300, 0.0]).reshape(3, 1, 1).astype(complex)
    got = norms._toward_top(y, psi)
    assert np.allclose(np.abs(got), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(got[2], psi[2])


@pytest.mark.parametrize("factor", [1e-100, 1e-200])
def test_ascent_on_a_tiny_pair(factor):
    # maps scaled far below 1 keep every solve regular and every value
    # finite: no LinAlgError, and no RuntimeWarning (an error here)
    rng = np.random.default_rng(25)
    t1, t2 = rand_channel(rng, 3, 3, n_kraus=2), rand_channel(rng, 3, 3, n_kraus=2)
    lower = diamond_lower(scale(t1, factor), scale(t2, factor), restarts=4)
    assert 0.0 < lower <= 2.0 * factor * (1.0 + 1e-9)
    rep = norm_report(scale(t1, factor), scale(t2, factor), restarts=4)
    assert rep.lower == lower


def test_ascent_stop_is_scale_free():
    # a restart stops on a gain relative to its value, so scaling both maps
    # by c scales the lower estimate by c and leaves the stopping steps alone
    rng = np.random.default_rng(25)
    t1, t2 = rand_channel(rng, 3, 3, n_kraus=2), rand_channel(rng, 3, 3, n_kraus=2)
    base = norm_report(t1, t2, restarts=4).lower
    for c in (1e-6, 1e-12):
        lower = norm_report(scale(t1, c), scale(t2, c), restarts=4).lower
        assert abs(lower / c - base) <= 1e-8 * base


def test_norm_report_one_dimensional_output():
    # maps into C are states rho_i = sum_x v_x v_x*, and the distinguishability
    # norm is ||rho1 - rho2||_1; y is 1 x 1, so no second eigenvalue exists
    rng = np.random.default_rng(31)
    t1, t2 = rand_channel(rng, 3, 1), rand_channel(rng, 3, 1, n_kraus=2)
    v1, v2 = t1.kraus_array[:, :, 0], t2.kraus_array[:, :, 0]
    diff = v1.T @ v1.conj() - v2.T @ v2.conj()
    trace_norm = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    rep = norm_report(t1, t2, seed=2, restarts=3)
    assert abs(rep.lower - trace_norm) <= 1e-12
    assert rep.iterations == 6
    assert rep.lower <= min(rep.upper_rn, rep.upper_dilation) * (1.0 + 1e-9)


def test_diamond_dim_mismatch():
    with pytest.raises(DimMismatch):
        diamond_lower(rand_channel(RNG, 2, 2), rand_channel(RNG, 2, 3))


def test_bound_rn_identical_maps():
    t = rand_cp_map(RNG, 2, 3)
    assert bound_rn(t, t) < 1e-12


def test_bound_rn_exact_on_orthogonal_unitaries():
    assert abs(bound_rn(IDENT, XCONJ) - 2.0) < 1e-9


def test_bound_rn_dominated_channel_inequality():
    # for s <= t with t a channel, |1 - D_t(s)| bounds the distance too
    for _ in range(5):
        t = rand_channel(RNG, 2, 2, n_kraus=2)
        s = scale(t, float(RNG.uniform(0.2, 0.9)))
        f = rn_derivative(s, t)
        paper_bound = op_norm(np.eye(f.env_dim) - f.matrix)
        lower = diamond_lower(s, t, restarts=4)
        assert lower <= paper_bound * (1.0 + 1e-9)
        assert lower <= bound_rn(s, t) * (1.0 + 1e-9)


def test_derivatives_on_sum_resolve_identity():
    t1 = rand_cp_map(RNG, 2, 3)
    t2 = rand_cp_map(RNG, 2, 3)
    total = add(t1, t2)
    f1 = rn_derivative(t1, total)
    f2 = rn_derivative(t2, total)
    assert np.allclose(f1.matrix + f2.matrix, np.eye(f1.env_dim), atol=1e-9)


def test_common_dilation_matches_self():
    t = rand_channel(RNG, 2, 2)
    pair = common_dilation(t, t)
    assert np.allclose(pair.v1, pair.v2, atol=1e-12)
    assert pair.env_dim == 4
    assert bound_dilation_diff(pair) < 1e-10


def test_common_dilation_channel_isometries():
    t1 = rand_channel(RNG, 3, 2)
    t2 = rand_channel(RNG, 3, 2)
    pair = common_dilation(t1, t2)
    for v in (pair.v1, pair.v2):
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-9)
    # isometry norms are 1, so the bound is twice the gap
    gap = op_norm(pair.v1 - pair.v2)
    assert abs(bound_dilation_diff(pair) - 2.0 * gap) < 1e-9


@pytest.mark.parametrize("theta", [0.7, 1.3, 2.9])
def test_common_dilation_ignores_a_global_kraus_phase(theta):
    # the golden bounds pair: u has Kraus rank one, so its process operator's
    # zero eigenvalues must not reach its root as sqrt(eps) terms
    want = common_dilation(golden_map("t.json"), golden_map("u.json"))
    got = common_dilation(golden_map("t.json", theta), golden_map("u.json", theta))
    assert np.abs(got.v1 - want.v1).max() <= 1e-12
    assert np.abs(got.v2 - want.v2).max() <= 1e-12
    assert abs(bound_dilation_diff(got) - bound_dilation_diff(want)) <= 1e-12


def test_common_dilation_sqrt_step_is_contractive():
    t1 = rand_operation(RNG, 2, 2)
    t2 = rand_operation(RNG, 2, 2)
    from cp_calculus.duality import jam_forward

    f1 = jam_forward(t1).matrix
    f2 = jam_forward(t2).matrix
    lhs = op_norm(psd_sqrt(f1) - psd_sqrt(f2))
    assert lhs <= np.sqrt(op_norm(f1 - f2)) * (1.0 + 1e-9)


def test_common_dilation_dimension_weighted_gap():
    for _ in range(5):
        m = int(RNG.integers(2, 4))
        n = int(RNG.integers(2, 4))
        t1 = rand_channel(RNG, m, n)
        t2 = rand_channel(RNG, m, n)
        pair = common_dilation(t1, t2)
        assert op_norm(pair.v1 - pair.v2) <= m * np.sqrt(bound_rn(t1, t2)) * (
            1.0 + 1e-9
        ) + 1e-12


def test_common_dilation_pair_validation():
    with pytest.raises(ShapeMismatch):
        CommonDilationPair(2, 2, np.zeros((8, 2)), np.zeros((7, 2)))


@pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)])
def test_common_dilation_matches_dense_layout(m, n):
    # sqrt(F_i) acting on each reshaped block of V_ref gives the very bits
    # of the dense (1 (x) sqrt(F_i)) V_ref
    for seed in range(3):
        rng = np.random.default_rng([seed, m, n])
        t1, t2 = rand_channel(rng, m, n), rand_operation(rng, m, n)
        pair = common_dilation(t1, t2)
        for t, v in ((t1, pair.v1), (t2, pair.v2)):
            dense = reference_common_dilation(jam_forward(t).matrix, m, n)
            assert np.array_equal(v, dense)


def test_common_dilation_past_the_dense_cap():
    # the dense identity factor would be 32768 x 32768 here, past MAX_DIM
    rng = np.random.default_rng(128)
    t1, t2 = rand_channel(rng, 128, 2), rand_channel(rng, 128, 2)
    pair = common_dilation(t1, t2)
    assert pair.v1.shape == (128 * 256, 2)
    a = rand_complex(rng, 128, 128)
    for t, v in ((t1, pair.v1), (t2, pair.v2)):
        expected = apply(t, a)
        assert op_norm(env_sandwich(v, a) - expected) <= 1e-10 * op_norm(a)


def test_sandwich_on_random_pairs():
    for _ in range(6):
        m = int(RNG.integers(2, 4))
        n = int(RNG.integers(2, 4))
        t1 = rand_channel(RNG, m, n)
        t2 = rand_channel(RNG, m, n)
        rep = norm_report(t1, t2, seed=1, restarts=6)
        assert rep.lower <= rep.upper_rn * (1.0 + 1e-9) + 1e-12
        assert rep.lower <= rep.upper_dilation * (1.0 + 1e-9) + 1e-12
        assert rep.cb_exact is None or rep.cb_exact >= 0.0


def test_norm_report_exact_branch():
    t = rand_channel(RNG, 2, 2)
    s = scale(t, 0.25)
    # the difference is CP, so its CB norm is |(t - s)(1)| = 0.75; the density
    # difference D is PSD for (t, s), and -D for (s, t)
    for t1, t2 in ((t, s), (s, t)):
        rep = norm_report(t1, t2, seed=0, restarts=4)
        assert rep.cb_exact is not None
        assert abs(rep.cb_exact - 0.75) < 1e-10
        assert rep.lower <= rep.cb_exact * (1.0 + 1e-9)
        assert rep.iterations >= rep.restarts


def _reweighted(t, weights, extra=()):
    """t's canonical family with operator x scaled by sqrt(weights[x]), plus ``extra``."""
    ops = canonicalize(t).kraus_array
    return CpMap(t.dim_in, t.dim_out, tuple(np.sqrt(weights)[:, None, None] * ops) + extra)


def _leak(t, rng):
    """A Kraus operator Hilbert-Schmidt orthogonal to t's canonical family: out of its support."""
    ops = canonicalize(t).kraus_array
    v = rand_complex(rng, t.dim_in, t.dim_out)
    for k in ops:
        v = v - np.vdot(k, v) / np.vdot(k, k) * k
    return (v,)


# t2 is t1's canonical family reweighted: one weight 1 + eps and the others
# below 1, where t2 <= (1 + EPS_PSD) t1 flips at eps = EPS_PSD, or 1 - eps and
# the others above 1, where t1 <= (1 + EPS_PSD) t2 does; a leak out of t1's
# support rules t2 <= c t1 out, so it crosses only the second edge
@pytest.mark.parametrize("case", ["thin", "wide", "leak"])
def test_cb_exact_reads_dominates_both_ways(case):
    rng = np.random.default_rng(["thin", "wide", "leak"].index(case))
    m, k = (3, 2) if case != "wide" else (2, 4)
    t1 = rand_channel(rng, m, m, n_kraus=k)
    extra = _leak(t1, rng) if case == "leak" else ()
    seen = set()
    for sign in (1.0, -1.0):
        rest = 1.0 - sign * rng.uniform(0.2, 0.5, size=k - 1)  # below 1 for +, above for -
        for eps in np.logspace(-11, -7, 17):
            if abs(eps - EPS_PSD) <= 1e-12:
                continue
            t2 = _reweighted(t1, np.concatenate([[1.0 + sign * eps], rest]), extra)
            ordered = dominates(t1, t2) or dominates(t2, t1)
            rep = norm_report(t1, t2, seed=0, restarts=1)
            assert (rep.cb_exact is not None) == ordered, (sign, eps)
            seen.add((sign, ordered))
    crossed = {(1.0, False), (-1.0, False), (-1.0, True)}
    assert seen == (crossed if extra else crossed | {(1.0, True)})


def test_norm_report_zero_distance():
    t = rand_channel(RNG, 2, 2)
    rep = norm_report(t, t, seed=0, restarts=2)
    assert rep.lower == 0.0
    assert rep.upper_rn < 1e-10
    assert rep.cb_exact is not None and rep.cb_exact < 1e-12


@pytest.mark.parametrize(
    "bound, name", [("_bound_rn", "upper_rn"), ("_bound_dilation", "upper_dilation")]
)
def test_norm_report_rejects_inverted_bracket(monkeypatch, bound, name):
    # _bound_rn returns (upper_rn, D); the bracket is checked before D is read
    value = (0.0, np.zeros((2, 2))) if bound == "_bound_rn" else 0.0
    monkeypatch.setattr(norms, bound, lambda *args: value)
    with pytest.raises(InvariantViolation, match=name):
        norm_report(IDENT, XCONJ, seed=0, restarts=2)


def test_norm_report_rejects_dilation_gap(monkeypatch):
    far = CommonDilationPair(2, 2, np.zeros((8, 2)), 10.0 * np.ones((8, 2)))
    monkeypatch.setattr(norms, "_common_dilation", lambda *args: far)
    with pytest.raises(InvariantViolation, match="dilation gap"):
        norm_report(IDENT, XCONJ, seed=0, restarts=2)


@pytest.mark.parametrize("fn", [diamond_lower, norm_report], ids=lambda fn: fn.__name__)
def test_each_process_operator_is_formed_once(choi_calls, fn):
    # t1's and t2's, counted wherever the package binds to_choi: the ascent
    # regroups their difference, both bounds and the cb_exact test share
    # them, and the sum's is their sum, not that of a Kraus-union map
    rng = np.random.default_rng(3)
    t = rand_channel(rng, 2, 3)
    for t2 in (rand_channel(rng, 2, 3), scale(t, 0.7)):
        choi_calls.clear()
        fn(t, t2, seed=0, restarts=2)
        assert [sum(x is u for x in choi_calls) for u in (t, t2)] == [1, 1]
        assert len(choi_calls) == 2


def test_upper_bounds_need_no_reference_channel_or_sum_map(monkeypatch):
    # the bracket is a function of the two process operators: no module
    # may build the reference channel, the Kraus union t1 + t2 or a
    # canonical form of it on the way
    rng = np.random.default_rng(4)
    t = rand_channel(rng, 2, 3)
    pairs = [(t, rand_channel(rng, 2, 3)), (t, scale(t, 0.7))]

    def banned(*args, **kwargs):
        raise RuntimeError("banned call")

    # the package itself binds nothing: it looks names up in these modules
    modules = [mod for name, mod in sys.modules.items() if name.startswith("cp_calculus.")]
    for module in modules:
        for name in ("reference_channel", "add", "canonicalize"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, banned)
    for t1, t2 in pairs:
        rep = norm_report(t1, t2, seed=0, restarts=2)
        assert rep.lower <= rep.upper_rn * (1.0 + 1e-9) + 1e-12
        assert bound_rn(t1, t2) == rep.upper_rn
        pair = common_dilation(t1, t2)
        assert pair.v1.shape == (2 * 6, 3)


# norm_report(...).lower and .iterations for fixed channel pairs (m, n,
# Kraus count).  Every restart converges below the 200-step cap.  The first
# two rows do not hinge on rounding: the pair of unitary channels reaches
# its optimum in three steps, and (4, 4, 16) has k1 + k2 >= m * n, so x has
# full rank.  The (3, 2, 2) pair has k1 + k2 < m * n: x has a zero
# eigenvalue whose sign rounding decides, that sign steers the next step,
# and so the row pins the bits of this implementation's floating-point work.
@pytest.mark.parametrize(
    "m, n, k, lower, iterations",
    [
        (2, 2, 1, 1.688307501335492, 24),
        (4, 4, 16, 1.222198909063584, 108),
        (3, 2, 2, 1.7595040647546725, 206),
    ],
)
def test_norm_report_pinned_ascent(m, n, k, lower, iterations):
    rng = np.random.default_rng([1, m, n, k])
    t1 = rand_channel(rng, m, n, n_kraus=k)
    t2 = rand_channel(rng, m, n, n_kraus=k)
    rep = norm_report(t1, t2, seed=5, restarts=8)
    assert abs(rep.lower - lower) <= 1e-12
    assert rep.iterations == iterations
