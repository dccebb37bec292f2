import sys

import numpy as np
import pytest

from cp_calculus import cpmap, order
from cp_calculus.cpmap import (
    CpMap,
    StinespringDilation,
    add,
    apply,
    canonicalize,
    from_stinespring,
    is_channel,
    scale,
    to_choi,
)
from cp_calculus.errors import (
    CpError,
    DimMismatch,
    DimensionLimit,
    InvariantViolation,
    NotAChannel,
    NotAnOperation,
    NotDominated,
    NotMonotone,
)
from cp_calculus.numerics import EPS_PSD, op_norm
from cp_calculus.order import (
    DifferenceVerdict,
    DominationConstant,
    PvmChain,
    c_min,
    channel_difference_is_cp,
    mix_channels,
    naimark_dilate,
    order_chain_dilation,
    pad_to_channel,
)
from cp_calculus.radon import (
    PovmDecomposition,
    cp_difference,
    dominates,
    rn_derivative,
    rn_reconstruct,
)
from helpers import (
    conic_chain,
    env_sandwich,
    golden_map,
    rand_channel,
    rand_complex,
    rand_contraction,
    rand_cp_map,
    rand_operation,
    rand_psd,
    rand_unitary,
    reference_c_min,
    reference_chain_projections,
    reference_naimark_pvm,
)

RNG = np.random.default_rng(20240820)
SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4)]


def matrix_units(d):
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield e


def test_equal_channels_verdict():
    t = rand_channel(RNG, 3, 3)
    # a different Kraus presentation of the same map
    u = rand_unitary(RNG, len(t.kraus))
    mixed = [
        sum(u[x, y] * t.kraus[x] for x in range(len(t.kraus)))
        for y in range(len(t.kraus))
    ]
    same = CpMap(3, 3, tuple(mixed))
    assert channel_difference_is_cp(same, t) is DifferenceVerdict.EQUAL


def test_distinct_channels_verdict():
    for _ in range(25):
        m, n = (int(x) for x in RNG.integers(1, 4, size=2))
        a = rand_channel(RNG, m, n)
        b = rand_channel(RNG, m, n)
        if np.max(np.abs(to_choi(a).matrix - to_choi(b).matrix)) < 1e-6:
            continue
        assert channel_difference_is_cp(a, b) is DifferenceVerdict.NOT_CP
        assert not dominates(a, b)


def test_rigidity_check_raises_in_every_mode(monkeypatch):
    # a separated channel pair that "dominates" breaks rigidity; the check
    # is an explicit raise, so it also holds under python -O
    a = CpMap(2, 2, (np.eye(2),))
    b = CpMap(2, 2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
    monkeypatch.setattr("cp_calculus.order._top", lambda *args: 0.0)
    with pytest.raises(InvariantViolation, match="rigidity"):
        channel_difference_is_cp(a, b)


def test_rigidity_forms_each_operator_once(monkeypatch):
    # the equality test's process operators also serve the cross-check's
    # density and a wide t's canonical family
    seen = []
    orig = cpmap.to_choi

    def counted(t):
        seen.append(t)
        return orig(t)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cp_calculus.") and getattr(mod, "to_choi", None) is orig:
            monkeypatch.setattr(mod, "to_choi", counted)
    for n_kraus in (1, 4):
        seen.clear()
        s, t = (rand_channel(RNG, 2, 2, n_kraus=n_kraus) for _ in range(2))
        assert channel_difference_is_cp(s, t) is DifferenceVerdict.NOT_CP
        assert [sum(x is u for x in seen) for u in (s, t)] == [1, 1]
        assert len(seen) == 2


def test_equal_normalization_generalization():
    t = rand_operation(RNG, 2, 2)
    # same normalization, different map: conjugate by a unitary
    u = rand_unitary(RNG, 2)
    s = CpMap(2, 2, tuple(u @ v for v in t.kraus))
    # apply(s,1) = sum V*u*uV = apply(t,1): same normalization
    assert channel_difference_is_cp(s, t) in (
        DifferenceVerdict.EQUAL,
        DifferenceVerdict.NOT_CP,
    )
    with pytest.raises(NotAChannel):
        channel_difference_is_cp(scale(t, 0.5), t)


def test_c_min_scalar_multiple():
    t = rand_cp_map(RNG, 2, 3)
    res = c_min(scale(t, 0.3), t)
    assert res.attained
    assert res.value == pytest.approx(0.3, rel=1e-9)


def test_c_min_boundary_invariant():
    for _ in range(10):
        m, n = (int(x) for x in RNG.integers(2, 4, size=2))
        t = rand_cp_map(RNG, m, n)
        d = rn_derivative(t, t).env_dim
        s = rn_reconstruct(t, rand_contraction(RNG, d))
        res = c_min(s, t)
        assert res.attained
        if res.value > 0:
            assert dominates(s, scale(t, res.value * (1 + 1e-9)))
            assert not dominates(s, scale(t, res.value * (1 - 1e-6)))


def test_c_min_support_escape():
    ident = CpMap(2, 2, (np.eye(2),))
    full = rand_cp_map(RNG, 2, 2, n_kraus=4)
    res = c_min(full, ident)
    assert res.value == float("inf")
    assert not res.attained


def test_c_min_zero_map():
    t = rand_cp_map(RNG, 2, 2)
    zero = CpMap(2, 2, (np.zeros((2, 2)),))
    res = c_min(zero, t)
    assert res.attained
    assert res.value == pytest.approx(0.0, abs=1e-12)


def near_support_pair(leak):
    """t the identity channel on C^2; s = 0.01 t plus a Pauli-X part of weight leak."""
    t = CpMap(2, 2, (np.eye(2),))
    x = CpMap(2, 2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
    return add(scale(t, 0.01), scale(x, leak)), t


def test_c_min_finite_when_derivative_exists():
    # the leak is inside rn_derivative's residual tolerance, so c_min is finite
    s, t = near_support_pair(3e-10)
    assert np.linalg.norm(rn_derivative(s, t).matrix, 2) == pytest.approx(0.01, abs=1e-12)
    res = c_min(s, t)
    assert res.attained
    assert abs(res.value - 0.01) < 1e-12


def comparison_pairs(rng):
    """Dominated, scaled-up and generic pairs at every shape of SHAPES."""
    for m, n in SHAPES:
        for _ in range(3):
            t = rand_cp_map(rng, m, n)
            d = rn_derivative(t, t).env_dim
            s = rn_reconstruct(t, rand_contraction(rng, d))
            yield s, t
            yield scale(s, 3.0), t
            yield rand_cp_map(rng, m, n), t


def test_c_min_agrees_with_rn_derivative():
    rng = np.random.default_rng(11)
    pairs = [near_support_pair(leak) for leak in (1e-10, 3e-10, 6e-10, 1e-9, 2e-9)]
    pairs += list(comparison_pairs(rng))
    # s = (1 + EPS_PSD (1 + j 1e-7)) t, thin and wide t: c_min lies within
    # 1e-13 of the window's upper edge, on either side of it
    for m, n, k in ((2, 2, 2), (2, 2, 4), (4, 4, 5), (4, 4, 16)):
        t = rand_cp_map(rng, m, n, n_kraus=k)
        for j in (-1000, -300, -100, -30, -10, -3, 0, 3, 10):
            pairs.append((scale(t, 1.0 + EPS_PSD * (1.0 + j * 1e-7)), t))
    outcomes = set()
    for s, t in pairs:
        res = c_min(s, t)
        try:
            rn_derivative(s, t)
            outcome = "ok"
        except NotDominated as exc:
            outcome = "leak" if str(exc).startswith("residual") else "window"
        outcomes.add(outcome)
        assert (res.value == float("inf")) == (outcome == "leak")
        assert (outcome == "ok") == (res.value <= 1.0 + EPS_PSD)
    assert outcomes == {"ok", "leak", "window"}


def test_c_min_matches_inverse_root_reference():
    rng = np.random.default_rng(12)
    finite = 0
    for s, t in comparison_pairs(rng):
        ref = reference_c_min(s, t)
        value = c_min(s, t).value
        if ref == float("inf"):
            assert value == ref
        else:
            finite += 1
            assert abs(value - ref) <= 1e-12 * ref
    assert finite >= 2 * 3 * len(SHAPES)


def test_mixture_bound():
    for _ in range(10):
        s1 = rand_channel(RNG, 2, 2)
        s2 = rand_channel(RNG, 2, 2)
        lam = float(RNG.uniform(0.15, 0.85))
        lam2 = float(RNG.uniform(0.0, 1.0))
        t = mix_channels(s1, s2, lam)
        t2 = mix_channels(s1, s2, lam2)
        bound = 1.0 / (lam * (1.0 - lam))
        res = c_min(t2, t)
        assert res.attained
        assert res.value <= bound * (1 + 1e-9)


def test_mix_channels_validation():
    s = rand_channel(RNG, 2, 2)
    assert is_channel(mix_channels(s, rand_channel(RNG, 2, 2), 0.5))
    with pytest.raises(ValueError):
        mix_channels(s, s, 1.5)
    with pytest.raises(NotAChannel):
        mix_channels(scale(s, 0.5), s, 0.5)
    with pytest.raises(DimMismatch):
        mix_channels(s, rand_channel(RNG, 3, 3), 0.5)


def test_pad_to_channel_frozen():
    t = CpMap(2, 2, (np.diag([1.0, np.sqrt(3.0) / 2.0]),))
    assert np.allclose(apply(t, np.eye(2)), np.diag([1.0, 0.75]), atol=1e-12)
    padded = pad_to_channel(t)
    assert is_channel(padded)
    # appended operator is the unique PSD root diag(0, 1/2)
    expected_extra = np.diag([0.0, 0.5])
    direct = add(t, CpMap(2, 2, (expected_extra,)))
    assert np.allclose(to_choi(padded).matrix, to_choi(direct).matrix, atol=1e-10)


def test_pad_already_channel():
    t = rand_channel(RNG, 3, 3)
    padded = pad_to_channel(t)
    assert np.allclose(to_choi(padded).matrix, to_choi(t).matrix, atol=1e-9)


def test_pad_non_square():
    t = rand_operation(RNG, 4, 2)
    padded = pad_to_channel(t)
    assert is_channel(padded)
    assert dominates(t, padded)

    # dim_in < dim_out works while the defect rank fits
    s = rand_channel(RNG, 2, 3)
    shrunk = scale(s, 0.9)  # defect 0.1 * identity has rank 3 > dim_in 2
    with pytest.raises(CpError):
        pad_to_channel(shrunk)

    v = np.zeros((2, 3), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = 1.0
    partial = CpMap(2, 3, (v,))  # defect diag(0, 0, 1), rank 1 <= 2
    padded = pad_to_channel(partial)
    assert is_channel(padded)
    assert dominates(partial, padded)


def test_pad_rejects_non_operation():
    with pytest.raises(NotAnOperation):
        pad_to_channel(scale(rand_channel(RNG, 2, 2), 1.5))


def test_naimark_projective_frozen():
    povm = PovmDecomposition(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    nai = naimark_dilate(povm)
    expected = np.array(
        [
            [1.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 1.0],
        ],
        dtype=complex,
    )
    assert np.allclose(nai.isometry, expected, atol=1e-12)
    assert np.allclose(nai.isometry.conj().T @ nai.isometry, np.eye(2), atol=1e-12)
    for i, f in enumerate(povm.elements):
        back = nai.isometry.conj().T @ nai.pvm[i] @ nai.isometry
        assert np.allclose(back, f, atol=1e-12)


def _sqrtm(m):
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    return (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T


def test_naimark_random_povms():
    for _ in range(15):
        d = int(RNG.integers(2, 5))
        k = int(RNG.integers(2, 5))
        raw = [rand_psd(RNG, d) + 1e-3 * np.eye(d) for _ in range(k)]
        total = sum(raw)
        root = np.linalg.inv(_sqrtm(total))
        elements = tuple(root @ f @ root.conj().T for f in raw)
        povm = PovmDecomposition(elements=elements)
        nai = naimark_dilate(povm)
        assert np.allclose(
            nai.isometry.conj().T @ nai.isometry, np.eye(d), atol=1e-9
        )
        for i, f in enumerate(povm.elements):
            assert np.allclose(
                nai.isometry.conj().T @ nai.pvm[i] @ nai.isometry, f, atol=1e-9
            )
            p = nai.pvm[i]
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.allclose(p, p.conj().T, atol=1e-12)


def test_naimark_projections_match_dense_kronecker():
    # each projection is built as the diagonal of 1 (x) |delta_i><delta_i|,
    # the very entries of the dense Kronecker product
    for d, k in ((1, 3), (2, 2), (3, 4)):
        elements = tuple(np.eye(d) / k for _ in range(k))
        pvm = naimark_dilate(PovmDecomposition(elements)).pvm
        expected = reference_naimark_pvm(d, k)
        assert len(pvm) == k
        for p, q in zip(pvm, expected):
            assert p.dtype == complex
            assert np.array_equal(p, q)


def test_naimark_dimension_guard():
    # d * k = 16386 is past MAX_DIM; the guard runs before any root is taken
    k = 8193
    povm = PovmDecomposition(tuple(np.eye(2) / k for _ in range(k)))
    with pytest.raises(DimensionLimit) as info:
        naimark_dilate(povm)
    assert str(info.value) == "tensor product of shape 16386x16386 exceeds the cap 16384"


def test_order_chain_projections_match_dense_partial_sums():
    # the increasing projections are the partial sums of the dense Naimark
    # projections, bit for bit, for channel-topped and padded chains alike
    for m, n, length in ((2, 2, 3), (3, 2, 2), (4, 4, 2)):
        for seed in range(2):
            chain = conic_chain(np.random.default_rng([seed, m, n]), m, n, length)
            if seed:
                chain[-1] = pad_to_channel(chain[-1])
            parts = length + (not is_channel(chain[-1]))
            result = order_chain_dilation(chain)
            expected = reference_chain_projections(result.env_dim // parts, parts, length)
            assert len(result.projections) == length
            for p, q in zip(result.projections, expected):
                assert np.array_equal(p, q)


def test_order_chain_dilation_reconstructs():
    for _ in range(8):
        # dim_in >= dim_out keeps the single-operator padding always realizable
        m = int(RNG.integers(2, 5))
        n = int(RNG.integers(2, m + 1))
        length = int(RNG.integers(1, 4))
        chain = conic_chain(RNG, m, n, length)
        result = order_chain_dilation(chain)
        assert len(result.projections) == length
        prev = np.zeros((result.env_dim, result.env_dim))
        for k, t in enumerate(chain):
            p = result.projections[k]
            assert np.allclose(p @ p, p, atol=1e-10)
            assert np.allclose(p, p.conj().T, atol=1e-10)
            w = np.linalg.eigvalsh((p - prev + (p - prev).conj().T) / 2)
            assert w[0] >= -1e-10
            prev = p
            for unit in matrix_units(m):
                lhs = result.isometry.conj().T @ np.kron(unit, p) @ result.isometry
                rhs = apply(t, unit)
                assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("theta", [0.7, 1.3, 2.9])
def test_order_chain_dilation_ignores_a_global_kraus_phase(theta):
    # a global Kraus phase changes no map; the golden chain's dilation must
    # not move with it beyond rounding, as its replay compares at 1e-12
    names = ["t_low.json", "t_mid.json", "t_high.json"]
    want = order_chain_dilation([golden_map(name) for name in names])
    got = order_chain_dilation([golden_map(name, theta) for name in names])
    assert np.abs(got.isometry - want.isometry).max() <= 1e-12
    assert len(got.projections) == len(want.projections)
    for p, q in zip(got.projections, want.projections):
        assert np.abs(p - q).max() <= 1e-12


def test_order_chain_two_scalars_frozen():
    t = rand_channel(RNG, 2, 2)
    lam = 0.35
    result = order_chain_dilation([scale(t, lam), t])
    assert len(result.projections) == 2
    # final projection is the identity on the environment
    assert np.allclose(result.projections[1], np.eye(result.env_dim), atol=1e-9)
    # isometry is exact since the top map is a channel
    assert np.allclose(
        result.isometry.conj().T @ result.isometry, np.eye(2), atol=1e-9
    )


def test_order_chain_padding_branch():
    chain = conic_chain(RNG, 3, 2, 2)
    assert not is_channel(chain[-1])
    result = order_chain_dilation(chain)
    # padded: the last input projection is strictly below the identity
    p = result.projections[-1]
    gap = np.eye(result.env_dim) - p
    assert np.linalg.eigvalsh((gap + gap.conj().T) / 2)[-1] > 1e-3


def test_order_chain_tall_output_channel_top():
    # dim_in < dim_out works whenever the top of the chain is already a channel.
    # A 1x3 channel comes from an isometry and its process operator is the
    # identity: fully degenerate, so only the dilation identities are pinned
    for m, n in ((2, 3), (1, 3)):
        top = rand_channel(RNG, m, n)
        chain = [scale(top, 0.4), top]
        result = order_chain_dilation(chain)
        assert len(result.projections) == 2
        assert np.allclose(result.projections[-1], np.eye(result.env_dim), atol=1e-9)
        for t, p in zip(chain, result.projections):
            for unit in matrix_units(m):
                lhs = result.isometry.conj().T @ np.kron(unit, p) @ result.isometry
                assert np.max(np.abs(lhs - apply(t, unit))) <= 1e-8


def test_order_chain_past_the_dense_cap():
    # a full-Kraus-rank 128x2 top: the dense identity factor would be
    # 65536 x 32768 and A (x) P_k 65536 x 65536, so both act by reshaping
    top = rand_channel(np.random.default_rng(256), 128, 2, n_kraus=256)
    chain = [scale(top, 0.5), top]
    result = order_chain_dilation(chain)
    assert result.env_dim == 512
    assert result.isometry.shape == (128 * 512, 2)
    a = rand_complex(RNG, 128, 128)
    for t, p in zip(chain, result.projections):
        lhs = env_sandwich(result.isometry, a, p)
        assert op_norm(lhs - apply(t, a)) <= 1e-9 * op_norm(a)


def test_order_chain_rejects():
    t = rand_channel(RNG, 2, 2)
    with pytest.raises(NotMonotone):
        order_chain_dilation([t, scale(t, 0.5)])
    with pytest.raises(NotAnOperation):
        order_chain_dilation([scale(t, 2.0)])
    with pytest.raises(ValueError):
        order_chain_dilation([])
    with pytest.raises(DimMismatch):
        order_chain_dilation([scale(t, 0.5), rand_channel(RNG, 2, 3)])


def test_order_chain_names_the_failing_pair():
    # the densities on the top's environment decide monotonicity: a pair whose
    # difference leaves [0, 1], or whose lower element leaks out of the top's
    # support, is named, the density's NotDominated as the cause; the scan
    # runs downwards, so of two leaking elements the upper one is named,
    # against an element inside the top's support
    t = rand_channel(RNG, 2, 2, n_kraus=1)
    leak = CpMap(2, 2, (np.array([[0.0, 1.0], [1.0, 0.0]]),))  # outside t's support
    cases = [
        ([scale(t, 0.2), scale(t, 0.6), scale(t, 0.4)], 1, "density spectrum"),
        ([scale(t, 0.2), scale(t, 0.6), scale(t, 0.4), t], 1, "density spectrum"),
        ([scale(leak, 0.1), scale(t, 0.5), t], 0, "residual"),
        ([scale(leak, 0.1), add(scale(leak, 0.2), scale(t, 0.1)), scale(t, 0.5), t], 1, "residual"),
    ]
    for chain, k, cause in cases:
        with pytest.raises(NotMonotone) as info:
            order_chain_dilation(chain)
        assert str(info.value) == f"element {k} is not dominated by element {k + 1}"
        assert isinstance(info.value.__cause__, NotDominated)
        assert str(info.value.__cause__).startswith(cause)


def _passes(fn, *args):
    try:
        fn(*args)
    except CpError:
        return False
    return True


@pytest.mark.parametrize("m, k", [(2, 2), (2, 4), (3, 4), (3, 9)])
def test_order_chain_decides_as_rn_derivative_does(m, k):
    # s = (1 + eps) t on a channel t, thin (k < m^2) and wide: dominates,
    # c_min <= 1 + EPS_PSD, cp_difference, the chain [s, t] and rn_derivative
    # all read the density's window, 1 + EPS_PSD, so they give one verdict at
    # every eps off the window's rounding band; an order test on process
    # operators rejects from EPS_PSD / ||C_t|| up, inside the grid
    t = rand_channel(np.random.default_rng([m, k]), m, m, n_kraus=k)
    for eps in np.logspace(-12, -8, 33):
        if abs(eps - EPS_PSD) <= 1e-12:  # the rounding band at the window's edge
            continue
        s = scale(t, 1.0 + eps)
        verdicts = {
            "dominates": dominates(s, t),
            "c_min": c_min(s, t).value <= 1.0 + EPS_PSD,
            "cp_difference": _passes(cp_difference, t, s),
            "chain": _passes(order_chain_dilation, [s, t]),
            "rn_derivative": _passes(rn_derivative, s, t),
        }
        assert set(verdicts.values()) == {eps < EPS_PSD}, (eps, verdicts)


# dominates(s, t, tol) is c_min(s, t) <= 1 + tol: tol is the slack above 1 on
# the density's spectrum, and a leak out of t's support fails at every tol.
# An order test on process operators, is_psd(C_t - C_s, tol), which no verdict
# of the library runs, decides four cells the other way: the wide t against
# itself at tol 0 (its F = 1 rounds up, by 1e-14 to 5e-14 on this t), the
# thin t / 2 at tol 0 (the kernel of C_t / 2 rounds below 0), (1 + 5e-4) t at
# tol 1e-3 (C_t - C_s has eigenvalue -2e-3, beyond 1e-3 * max(1, ||C_t -
# C_s||)) and the leak at tol 10 (that slack swallows its -0.2).
IDENT, FLIP = (CpMap(2, 2, (v,)) for v in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
THIN = rand_channel(np.random.default_rng([0, 2, 2]), 2, 2, n_kraus=2)
WIDE = rand_channel(np.random.default_rng([0, 3, 9]), 3, 3, n_kraus=9)
TOLS = (0.0, 1e-9, 1e-3, 10.0)
TOL_TABLE = {
    "wide t, t": (WIDE, WIDE, (False, True, True, True)),
    "thin t / 2, t": (scale(THIN, 0.5), THIN, (True, True, True, True)),
    "(1 + 5e-4) t, t": (scale(IDENT, 1.0 + 5e-4), IDENT, (False, False, True, True)),
    "3 t, t": (scale(IDENT, 3.0), IDENT, (False, False, False, True)),
    "leak, t": (scale(FLIP, 0.1), IDENT, (False, False, False, False)),
}


@pytest.mark.parametrize("case", sorted(TOL_TABLE))
def test_dominates_reads_tol_above_the_density_spectrum(case):
    s, t, want = TOL_TABLE[case]
    got = tuple(dominates(s, t, tol) for tol in TOLS)
    assert got == want
    assert got == tuple(c_min(s, t).value <= 1.0 + tol for tol in TOLS)


def test_order_chain_forms_each_operator_once(monkeypatch):
    # count to_choi wherever the package binds it
    seen = []
    orig = cpmap.to_choi

    def counted(t):
        seen.append(t)
        return orig(t)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cp_calculus.") and getattr(mod, "to_choi", None) is orig:
            monkeypatch.setattr(mod, "to_choi", counted)
    chain = conic_chain(RNG, 4, 4, 3)
    assert not is_channel(chain[-1])
    order_chain_dilation(chain)
    # none at all: thin elements take their densities from their stacks, the
    # densities decide monotonicity, and the padding's canonical form is a
    # thin SVD of its stack of at most seven columns
    assert seen == []
    # a thin channel-topped chain forms none either; a wide one (16 operators
    # at 4 x 4) forms each element's once, for the lower elements' densities
    # and the top's canonical family, the top's own density being 1
    for n_kraus, want in ((None, [0, 0, 0]), (16, [1, 1, 1])):
        seen.clear()
        top = rand_channel(RNG, 4, 4, n_kraus=n_kraus)
        chain = [scale(top, 0.25), scale(top, 0.5), top]
        order_chain_dilation(chain)
        assert [sum(x is t for x in seen) for t in chain] == want
        assert len(seen) == sum(want)


def test_order_chain_runs_one_eigendecomposition(monkeypatch):
    # the canonical form of the top element is the only factorization of
    # size m*n: a thin SVD of the top's stack (the padded top's has at most
    # seven columns, the unpadded top's two), and no eigh of that size runs,
    # as thin elements take their densities from their stacks; the chains'
    # Kraus ranks stay below 16, so the Naimark roots are smaller
    sizes = []
    orig_eigh, orig_svd = np.linalg.eigh, np.linalg.svd

    def counted(name, orig):
        def call(a, *args, **kwargs):
            sizes.append((name, a.shape[0]))
            return orig(a, *args, **kwargs)

        return call

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", orig_eigh))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", orig_svd))
    padded = conic_chain(RNG, 4, 4, 3)
    assert not is_channel(padded[-1])
    top = rand_channel(RNG, 4, 4, n_kraus=2)
    for chain in (padded, [scale(top, 0.5), top]):
        sizes.clear()
        order_chain_dilation(chain)
        assert [call for call in sizes if call[1] == 16] == [("svd", 16)]


def test_order_chain_povm_is_differences_of_densities(monkeypatch):
    # the POVM the chain dilates is the successive differences of
    # rn_derivative(T_k, top), ending in the top's own density, 1; it sums to 1
    povms, naimark = [], order._naimark

    def recorded(povm, masks):
        povms.append(povm)
        return naimark(povm, masks)

    monkeypatch.setattr(order, "_naimark", recorded)
    for m, n, n_kraus in ((2, 2, None), (3, 2, None), (4, 4, 16)):
        base = rand_channel(RNG, m, n, n_kraus=n_kraus)
        for chain in (conic_chain(RNG, m, n, 3), [scale(base, 0.3), scale(base, 0.7), base]):
            order_chain_dilation(chain)
            top = chain[-1] if is_channel(chain[-1]) else pad_to_channel(chain[-1])
            dens = [rn_derivative(t, top).matrix for t in chain]
            if top is chain[-1]:
                dens.pop()
            dens.append(np.eye(len(dens[0])))
            want = [f - g for f, g in zip(dens, [0.0, *dens])]
            got = povms.pop().elements
            assert len(got) == len(want)
            for el, ref in zip(got, want):
                assert np.abs(el - ref).max() <= 1e-12
            assert np.abs(sum(got) - np.eye(len(got[0]))).max() <= 1e-12


def test_chain_converse_direction():
    # any increasing projection family on any dilation yields a monotone chain
    for _ in range(10):
        m, n, env = 2, 3, 4
        u = rand_unitary(RNG, env)
        ranks = sorted(int(x) for x in RNG.integers(1, env + 1, size=3))
        projections = []
        for r in ranks:
            b = u[:, :r]
            projections.append(b @ b.conj().T)
        g = rand_complex(RNG, m * env, n)
        q, _ = np.linalg.qr(g)
        maps = []
        for p in projections:
            mat = np.kron(np.eye(m), p) @ q
            maps.append(
                from_stinespring(
                    StinespringDilation(
                        dim_in=m, dim_out=n, env_dim=env, matrix=mat, minimal=False
                    )
                )
            )
        for a in range(len(maps)):
            for b in range(a, len(maps)):
                assert dominates(maps[a], maps[b])


def test_domination_constant_type():
    res = DominationConstant(value=1.5, attained=True)
    assert res.value == 1.5
    assert res.attained


def test_pvm_chain_type_validation():
    with pytest.raises(Exception):
        PvmChain(
            dim_in=2,
            dim_out=2,
            env_dim=2,
            isometry=np.eye(3),
            projections=(np.eye(2),),
        )
