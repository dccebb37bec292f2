import inspect
import sys

import numpy as np
import pytest

from cp_calculus.cpmap import CpMap, add, apply, scale, to_choi
from cp_calculus import cpmap, duality, norms, radon
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
from cp_calculus.numerics import herm_eig, op_norm, psd_sqrt
from cp_calculus.radon import rn_derivative
from helpers import (
    env_sandwich,
    rand_channel,
    rand_complex,
    rand_cp_map,
    rand_operation,
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
        k1 = rand_channel(rng, m, n, n_kraus=k).kraus_array
        k2 = rand_operation(rng, m, n, n_kraus=k).kraus_array
        g = norms._process_difference(k1, k2)
        for ridx in range(4):
            got = norms._ascend(k1, k2, n * r, np.random.default_rng(ridx), 200, 1e-10, g=g)
            want = reference_ascend(k1, k2, n * r, np.random.default_rng(ridx), 200, 1e-10)
            assert abs(got[0] - want[0]) <= 1e-12
            assert got[1] == want[1]


def test_ascend_signature():
    # bench/spans.py's restart hook reads max_iter as args[4] and the
    # iteration count as result[1]
    params = inspect.signature(norms._ascend).parameters.values()
    positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert positional == ["k1", "k2", "dim", "rng", "max_iter", "tol"]
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["g"]


def test_ascend_takes_herm_eig_only_on_ties(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape)
        return herm_eig(m)

    monkeypatch.setattr(norms, "herm_eig", counted)
    rng = np.random.default_rng(9)
    t1, t2 = rand_channel(rng, 3, 3), rand_channel(rng, 3, 3)
    assert diamond_lower(t1, t2, restarts=4) > 0.0
    assert calls == []
    # identical maps make y = 0, whose top eigenvalue is tied
    assert diamond_lower(t1, t1, restarts=2) == 0.0
    assert calls == [(9, 9), (9, 9)]


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
    rep = norm_report(t, s, seed=0, restarts=4)
    # the difference is CP, so its CB norm is |(t - s)(1)| = 0.75
    assert rep.cb_exact is not None
    assert abs(rep.cb_exact - 0.75) < 1e-10
    assert rep.lower <= rep.cb_exact * (1.0 + 1e-9)
    assert rep.iterations >= rep.restarts


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
    monkeypatch.setattr(norms, bound, lambda *args: 0.0)
    with pytest.raises(InvariantViolation, match=name):
        norm_report(IDENT, XCONJ, seed=0, restarts=2)


def test_norm_report_rejects_dilation_gap(monkeypatch):
    far = CommonDilationPair(2, 2, np.zeros((8, 2)), 10.0 * np.ones((8, 2)))
    monkeypatch.setattr(norms, "_common_dilation", lambda *args: far)
    with pytest.raises(InvariantViolation, match="dilation gap"):
        norm_report(IDENT, XCONJ, seed=0, restarts=2)


def test_norm_report_forms_each_process_operator_once(monkeypatch):
    # t1's and t2's: both bounds and the cb_exact test share them, and the
    # sum's is their sum, not the process operator of a Kraus-union map
    calls = []

    def counted(t):
        calls.append(t)
        return to_choi(t)

    for module in (cpmap, duality, norms, radon):
        monkeypatch.setattr(module, "to_choi", counted)
    rng = np.random.default_rng(3)
    t = rand_channel(rng, 2, 3)
    for t2 in (rand_channel(rng, 2, 3), scale(t, 0.7)):
        calls.clear()
        norm_report(t, t2, seed=0, restarts=2)
        assert len(calls) == 2


def test_upper_bounds_need_no_reference_channel_or_sum_map(monkeypatch):
    # the bracket is a function of the two process operators: no module
    # may build the reference channel, the Kraus union t1 + t2 or a
    # canonical form of it on the way
    rng = np.random.default_rng(4)
    t = rand_channel(rng, 2, 3)
    pairs = [(t, rand_channel(rng, 2, 3)), (t, scale(t, 0.7))]

    def banned(*args, **kwargs):
        raise RuntimeError("banned call")

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "cp_calculus"]
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
        (3, 2, 2, 1.7595040647706761, 202),
    ],
)
def test_norm_report_pinned_ascent(m, n, k, lower, iterations):
    rng = np.random.default_rng([1, m, n, k])
    t1 = rand_channel(rng, m, n, n_kraus=k)
    t2 = rand_channel(rng, m, n, n_kraus=k)
    rep = norm_report(t1, t2, seed=5, restarts=8)
    assert abs(rep.lower - lower) <= 1e-12
    assert rep.iterations == iterations
