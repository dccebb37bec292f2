import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from cp_calculus import cpmap, numerics, radon
from cp_calculus.cpmap import (
    ChoiOperator,
    CpMap,
    add,
    apply,
    canonicalize,
    from_choi,
    is_channel,
    scale,
    to_choi,
)
from cp_calculus.errors import (
    DimMismatch,
    NotADecomposition,
    NotAResolution,
    NotDominated,
    NotPsd,
    ShapeMismatch,
)
from cp_calculus.numerics import herm_eig
from cp_calculus.order import c_min
from cp_calculus.radon import (
    PovmDecomposition,
    _prepare,
    cp_difference,
    dominates,
    instrument_rn,
    rescaled_kraus,
    rn_derivative,
    rn_reconstruct,
)
from helpers import (
    heisenberg_sum,
    order_gram_psd,
    rand_channel,
    rand_contraction,
    rand_cp_map,
    rand_operation,
)

RNG = np.random.default_rng(20240819)


def test_scalar_multiple_gives_scaled_identity():
    for _ in range(10):
        m, n = (int(x) for x in RNG.integers(1, 5, size=2))
        t = rand_cp_map(RNG, m, n)
        der = rn_derivative(scale(t, 0.3), t)
        assert np.allclose(der.matrix, 0.3 * np.eye(der.env_dim), atol=1e-10)


def test_derivative_round_trip_random_contractions():
    for _ in range(20):
        m, n = (int(x) for x in RNG.integers(1, 5, size=2))
        t = rand_cp_map(RNG, m, n)
        d = rn_derivative(t, t).env_dim
        f0 = rand_contraction(RNG, d)
        s = rn_reconstruct(t, f0)
        assert dominates(s, t)
        der = rn_derivative(s, t)
        assert np.allclose(der.matrix, f0, atol=1e-9)


def test_derivative_deterministic():
    t = rand_cp_map(RNG, 3, 3)
    s = rn_reconstruct(t, rand_contraction(RNG, rn_derivative(t, t).env_dim))
    f1 = rn_derivative(s, t).matrix
    f2 = rn_derivative(s, t).matrix
    assert np.array_equal(f1, f2)


def test_whole_map_derivative_is_identity():
    t = rand_cp_map(RNG, 3, 2)
    der = rn_derivative(t, t)
    assert np.allclose(der.matrix, np.eye(der.env_dim), atol=1e-10)


def test_reconstruction_matches_kernel_sum():
    # S(A) = sum_{x,y} F[x,y] V_x* A V_y against the canonical family
    t = rand_cp_map(RNG, 3, 3)
    base = canonicalize(t)
    d = len(base.kraus)
    f0 = rand_contraction(RNG, d)
    s = rn_reconstruct(t, f0)
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    direct = np.zeros((3, 3), dtype=complex)
    for x in range(d):
        for y in range(d):
            direct += f0[x, y] * base.kraus[x].conj().T @ a @ base.kraus[y]
    assert np.allclose(apply(s, a), direct, atol=1e-9)


def test_order_homomorphism():
    for _ in range(10):
        t = rand_cp_map(RNG, 3, 2)
        d = rn_derivative(t, t).env_dim
        f2 = rand_contraction(RNG, d)
        # f1 <= f2 by shrinking with a random PSD contraction factor
        lam = RNG.uniform(0.0, 1.0)
        f1 = lam * f2
        s1 = rn_reconstruct(t, f1)
        s2 = rn_reconstruct(t, f2)
        assert dominates(s1, s2)
        d1 = rn_derivative(s1, t).matrix
        d2 = rn_derivative(s2, t).matrix
        w = np.linalg.eigvalsh((d2 - d1 + (d2 - d1).conj().T) / 2)
        assert w[0] >= -1e-9


def test_agrees_with_quadratic_form_oracle():
    hits = {True: 0, False: 0}
    for _ in range(40):
        m, n = (int(x) for x in RNG.integers(1, 4, size=2))
        t = rand_cp_map(RNG, m, n)
        d = rn_derivative(t, t).env_dim
        if RNG.uniform() < 0.5:
            s = rn_reconstruct(t, rand_contraction(RNG, d))
        else:
            s = rand_cp_map(RNG, m, n)
        verdict = dominates(s, t)
        oracle = order_gram_psd(s, t, RNG, n_vectors=25)
        if verdict:
            assert oracle
        else:
            # sampling may miss a witness; repeated draws make that unlikely
            assert not order_gram_psd(s, t, RNG, n_vectors=60) or not verdict
        hits[verdict] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_not_dominated_by_scale():
    t = rand_cp_map(RNG, 2, 2)
    with pytest.raises(NotDominated) as err:
        rn_derivative(scale(t, 1.5), t)
    assert "escapes" in str(err.value)


def test_not_dominated_support_escape():
    # a pure dominating map cannot dominate a full-rank one
    ident = CpMap(2, 2, (np.eye(2),))
    full = rand_cp_map(RNG, 2, 2, n_kraus=4)
    full = scale(full, 1e-3)
    with pytest.raises(NotDominated) as err:
        rn_derivative(full, ident)
    assert "support" in str(err.value)


def test_distinct_channels_never_dominate():
    for _ in range(20):
        m, n = (int(x) for x in RNG.integers(1, 4, size=2))
        a = rand_channel(RNG, m, n)
        b = rand_channel(RNG, m, n)
        if np.max(np.abs(to_choi(a).matrix - to_choi(b).matrix)) < 1e-6:
            continue
        assert not dominates(a, b)
        with pytest.raises(NotDominated):
            rn_derivative(a, b)


def test_derivative_window():
    t = rand_cp_map(RNG, 3, 3)
    d = rn_derivative(t, t).env_dim
    s = rn_reconstruct(t, rand_contraction(RNG, d))
    f = rn_derivative(s, t).matrix
    w = np.linalg.eigvalsh((f + f.conj().T) / 2)
    assert w[0] >= -1e-9
    assert w[-1] <= 1 + 1e-9


def test_shared_dominator_matches_rn_derivative():
    # instrument_rn and rescaled_kraus prepare the dominator once; their
    # densities must be bit for bit those of separate rn_derivative calls
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        t = rand_channel(RNG, m, n)
        d = rn_derivative(t, t).env_dim
        f1 = rand_contraction(RNG, d)
        s = rn_reconstruct(t, f1)
        parts = [s, cp_difference(t, s)]
        povm = instrument_rn(t, parts)
        for elem, part in zip(povm.elements, parts):
            assert np.array_equal(elem, rn_derivative(part, t).matrix)
        weights = np.clip(herm_eig(rn_derivative(s, t).matrix).values, 0.0, 1.0)
        assert np.array_equal(rescaled_kraus(s, t).weights, weights)


def _dominator_calls(m, n):
    """A map t = a + b, four generic Kraus operators so its canonical
    environment has dimension 4, and the five dominator calls as functions
    of t returning their arrays; s = 0.4 a lies under t."""
    a, b = (rand_cp_map(RNG, m, n, n_kraus=2) for _ in range(2))
    s, t = scale(a, 0.4), add(a, b)
    parts = [s, scale(a, 0.6), b]
    return t, {
        "rn_derivative": lambda t: [rn_derivative(s, t).matrix],
        "c_min": lambda t: [np.array(c_min(s, t).value)],
        "rescaled_kraus": lambda t: [*(r := rescaled_kraus(s, t)).kraus, r.weights],
        "rn_reconstruct": lambda t: [rn_reconstruct(t, np.eye(4) / 2).kraus_array],
        "instrument_rn": lambda t: list(instrument_rn(t, parts).elements),
    }


def test_dominator_prepared_once_per_map(monkeypatch):
    # canonicalize keeps its family on the map and _prepare keeps (W, W+)
    # on that family, so five calls against one map take one factorization,
    # a thin SVD of its four-column stack (no eigensolve of its process
    # operator), and one _stack entry, which no call replaces
    t, calls = _dominator_calls(3, 2)
    choi, stack = to_choi(t).matrix, cpmap.kraus_stack(t.kraus)
    seen = Counter()
    eig, svd = cpmap.herm_eig, np.linalg.svd

    def counted_eig(m):
        seen["eig"] += np.array_equal(m, choi)
        return eig(m)

    def counted_svd(a, *args, **kwargs):
        seen["svd"] += np.array_equal(a, stack)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(cpmap, "herm_eig", counted_eig)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    stacks = []
    for call in calls.values():
        call(t)
        stacks.append(canonicalize(t).__dict__["_stack"])
    assert (seen["eig"], seen["svd"]) == (0, 1)
    assert all(stack is stacks[0] for stack in stacks)


def test_reconstruct_on_a_thin_dominator_takes_no_process_operator_eigh(monkeypatch):
    # t has four operators at 3 x 2: rn_reconstruct lifts the density's
    # 4-square eigensystem through t's four-column canonical stack, so no
    # eigh of side 6 runs; the result is the map the density describes
    t, _ = _dominator_calls(3, 2)
    density = rand_contraction(RNG, 4)
    sides = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sides.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    s = rn_reconstruct(t, density)
    assert 6 not in sides
    monkeypatch.undo()
    assert np.abs(rn_derivative(s, t).matrix - density).max() <= 1e-12


DOMINATOR_CALLS = ["rn_derivative", "c_min", "rescaled_kraus", "rn_reconstruct", "instrument_rn"]


@pytest.mark.parametrize("name", DOMINATOR_CALLS)
def test_prepared_dominator_matches_a_fresh_map(name):
    # each call on a map whose memo every other call has filled returns
    # the arrays a fresh copy of the map gives on its first call
    t, calls = _dominator_calls(3, 2)
    for call in calls.values():
        call(t)
    fresh = CpMap(t.dim_in, t.dim_out, t.kraus)
    assert repr(t) == repr(fresh)
    for got, want in zip(calls[name](t), calls[name](fresh), strict=True):
        assert np.array_equal(got, want)


def test_memo_holds_no_reference_cycle():
    # with the cyclic collector off, reference counting alone must free a
    # map and its canonical family once the five calls have filled both memos
    t, calls = _dominator_calls(2, 3)
    gc.disable()
    try:
        for call in calls.values():
            call(t)
        refs = [weakref.ref(t), weakref.ref(canonicalize(t))]
        del t, calls
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_rescaled_kraus_reweights():
    for _ in range(10):
        m, n = (int(x) for x in RNG.integers(2, 4, size=2))
        t = rand_cp_map(RNG, m, n)
        d = rn_derivative(t, t).env_dim
        f0 = rand_contraction(RNG, d)
        s = rn_reconstruct(t, f0)
        r = rescaled_kraus(s, t)
        assert np.all(np.diff(r.weights) <= 1e-12)
        assert np.all(r.weights >= 0.0) and np.all(r.weights <= 1.0)
        lam_expected = np.sort(np.linalg.eigvalsh(f0))[::-1]
        assert np.allclose(r.weights, lam_expected, atol=1e-9)
        a = RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
        total = heisenberg_sum(r.kraus, a)
        assert np.allclose(total, apply(t, a), atol=1e-9)
        weighted = sum(
            w * v.conj().T @ a @ v for w, v in zip(r.weights, r.kraus)
        )
        assert np.allclose(weighted, apply(s, a), atol=1e-8)


@pytest.mark.parametrize("m, n", [(1, 3), (4, 8), (8, 4)])
def test_rescaled_kraus_index_order(m, n):
    # rectangular shapes, so a swapped axis in the rotation's reshape fails
    rng = np.random.default_rng(10 * m + n)
    t = rand_cp_map(rng, m, n)
    s = rn_reconstruct(t, rand_contraction(rng, rn_derivative(t, t).env_dim))
    r = rescaled_kraus(s, t)
    assert all(v.shape == (m, n) for v in r.kraus)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    for want, got in [
        (apply(t, a), heisenberg_sum(r.kraus, a)),
        (apply(s, a), sum(w * v.conj().T @ a @ v for w, v in zip(r.weights, r.kraus))),
    ]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_cp_difference():
    t = rand_cp_map(RNG, 3, 2)
    d = rn_derivative(t, t).env_dim
    s = rn_reconstruct(t, rand_contraction(RNG, d))
    diff = cp_difference(t, s)
    assert np.allclose(
        to_choi(diff).matrix, to_choi(t).matrix - to_choi(s).matrix, atol=1e-9
    )
    # decided on the density, as dominates decides it: 2t's density on s's
    # environment leaves the window, and a leak fails the residual
    with pytest.raises(NotDominated, match=r"^density spectrum \[.*\] escapes \[0, 1\] by "):
        cp_difference(s, scale(t, 2.0))
    ident, flip = (CpMap(2, 2, (v,)) for v in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(NotDominated, match="^residual .* outside the dominating map's support$"):
        cp_difference(ident, scale(flip, 0.1))


@pytest.mark.parametrize("m, n, k", [(1, 1, 1), (2, 2, 1), (2, 3, 3), (3, 3, 9), (2, 2, 7)])
def test_cp_difference_reads_one_minus_the_density(m, n, k):
    # T - S reweights rescaled_kraus's family by 1 - F, thin and wide t: its
    # process operator is C_t - C_s, and T - T is the zero map, one all-zero
    # operator, as F = 1 only to rounding and weights below RANK_TOL read as 0
    rng = np.random.default_rng([m, n, k])
    t = rand_cp_map(rng, m, n, n_kraus=k)
    zero = cp_difference(t, t)
    assert len(zero.kraus) == 1 and not np.any(zero.kraus[0])
    d = rn_derivative(t, t).env_dim
    for f in (rand_contraction(rng, d), np.eye(d), np.zeros((d, d))):
        s = rn_reconstruct(t, f)
        diff = cp_difference(t, s)
        want = to_choi(t).matrix - to_choi(s).matrix
        assert np.abs(to_choi(diff).matrix - want).max() <= 1e-12 * np.abs(to_choi(t).matrix).max()


def test_instrument_rn_resolves_identity():
    for _ in range(10):
        m, n = (int(x) for x in RNG.integers(2, 4, size=2))
        t = rand_channel(RNG, m, n)
        d = rn_derivative(t, t).env_dim
        f1 = rand_contraction(RNG, d)
        parts = [rn_reconstruct(t, f1), rn_reconstruct(t, np.eye(d) - f1)]
        povm = instrument_rn(t, parts)
        assert len(povm.elements) == 2
        assert np.allclose(povm.elements[0], f1, atol=1e-9)
        assert np.allclose(sum(povm.elements), np.eye(d), atol=1e-9)


def test_instrument_rn_rejects_bad_sum():
    t = rand_channel(RNG, 2, 2)
    with pytest.raises(NotADecomposition):
        instrument_rn(t, [scale(t, 0.5), scale(t, 0.4)])
    with pytest.raises(
        NotADecomposition, match="^an instrument needs at least one part$"
    ):
        instrument_rn(t, [])
    # the identity channel's process operator has norm 4, so the missing
    # tenth is 0.4; parts from outside are checked here, not in the chain
    ident = CpMap(2, 2, (np.eye(2),))
    with pytest.raises(
        NotADecomposition, match="^parts sum differs from the map by 4.000e-01$"
    ):
        instrument_rn(ident, [scale(ident, 0.5), scale(ident, 0.4)])


def test_derived_povm_resolution_is_checked():
    # the parts' sum passes instrument_rn's check (8e-10 against 4e-9), but
    # t's weight on X(.)X is only 1e-9, so the extra 2e-10 there is 0.2 of
    # that environment direction; the densities' sum is not implied by the
    # parts' sum, and only PovmDecomposition catches it
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = CpMap(2, 2, (np.eye(2), np.sqrt(1e-9) * x))
    leak = CpMap(2, 2, (np.sqrt(2e-10) * x,))
    parts = [scale(t, 0.5), add(scale(t, 0.5), leak)]
    with pytest.raises(
        NotAResolution, match=r"^elements sum to identity \+ 2\.000e-01$"
    ):
        instrument_rn(t, parts)


def test_povm_type_validation():
    with pytest.raises(NotAResolution):
        PovmDecomposition(elements=(np.diag([0.5, 0.5]), np.diag([0.5, 0.4])))
    with pytest.raises(NotPsd):
        PovmDecomposition(elements=(np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))
    with pytest.raises(ShapeMismatch):
        PovmDecomposition(elements=())
    povm = PovmDecomposition(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert povm.dim == 2


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        dominates(rand_cp_map(RNG, 2, 2), rand_cp_map(RNG, 2, 3))
    with pytest.raises(DimMismatch):
        rn_derivative(rand_cp_map(RNG, 2, 2), rand_cp_map(RNG, 3, 2))


def test_reconstruct_validates_density():
    t = rand_cp_map(RNG, 2, 2)
    d = rn_derivative(t, t).env_dim
    with pytest.raises(ShapeMismatch):
        rn_reconstruct(t, np.eye(d + 1))
    with pytest.raises(NotPsd):
        rn_reconstruct(t, 1.5 * np.eye(d))


def test_zero_map_edge_cases():
    zero = CpMap(2, 2, (np.zeros((2, 2)),))
    t = rand_cp_map(RNG, 2, 2)
    der = rn_derivative(zero, t)
    assert np.allclose(der.matrix, 0.0, atol=1e-12)
    assert dominates(zero, t)
    with pytest.raises(NotDominated):
        rn_derivative(t, zero)
    der0 = rn_derivative(zero, zero)
    assert der0.env_dim == 1
    assert np.allclose(der0.matrix, 0.0)


T44 = rand_channel(np.random.default_rng(44), 4, 4, n_kraus=5)
DECISIONS = {
    "rn_derivative": lambda: rn_derivative(scale(T44, 0.4), T44),
    "instrument_rn": lambda: instrument_rn(T44, [scale(T44, 0.25), scale(T44, 0.75)]),
    "is_channel": lambda: is_channel(T44),
    "ChoiOperator": lambda: ChoiOperator(4, 4, to_choi(T44).matrix),
}


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_passing_checks_take_no_svd(norm_calls, name):
    # residuals far below tolerance pass norm_excess's Frobenius pre-test or
    # the stack route's leak bound, and ChoiOperator takes its scale only for
    # an eigenvalue below -EPS_PSD; T44's canonical family, a thin SVD of its
    # five-column stack taken once per map, is formed before counting
    canonicalize(T44)
    norm_calls.clear()
    DECISIONS[name]()
    assert dict(norm_calls) == {}


def _spanning_family(rng, m, n, k):
    """from_choi of a process operator whose k eigenvalues run from 1 down
    to 1.5e-10, ten decades, all above from_choi's RANK_TOL cut."""
    a = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    q = np.linalg.qr(a)[0][:, :k]
    c = m * (q * np.geomspace(1.0, 1.5e-10, k)) @ q.conj().T
    return from_choi(ChoiOperator(m, n, numerics.hermitize(c)))


def test_prepare_inverts_canonical_stacks():
    # W's columns are orthogonal, so W+ is W* with row x divided by
    # ||w_x||^2: W W+ is the orthogonal projector onto W's range
    rng = np.random.default_rng(2201)
    spanning = [_spanning_family(rng, m, n, k) for m, n, k in [(2, 2, 4), (2, 3, 6), (4, 4, 16)]]
    randoms = [
        canonicalize(rand_cp_map(rng, m, n, n_kraus=int(rng.integers(1, m * n + 1))))
        for m, n in [(2, 2), (2, 3), (4, 4), (16, 16)]
    ]
    for family in spanning + randoms:
        w, wp = _prepare(family)
        assert w.shape[1] == len(family.kraus)
        p = w @ wp
        assert np.abs(p - p.conj().T).max() <= 1e-12
        assert np.abs(p @ p - p).max() <= 1e-12
        assert np.abs(p @ w - w).max() <= 1e-12 * np.abs(w).max()
        # the density certifies itself: rn_derivative's residual check passes
        der = rn_derivative(scale(family, 0.3), family)
        assert der.env_dim == len(family.kraus)
    for family in randoms:
        w, wp = _prepare(family)
        assert np.abs(wp @ w - np.eye(w.shape[1])).max() <= 1e-12
        s = scale(family, rng.uniform(0.1, 0.9))
        want = np.linalg.pinv(w, rcond=0.0)
        cs = to_choi(s).matrix / s.dim_in
        want = numerics.hermitize(want @ cs @ want.conj().T)
        got = rn_derivative(s, family).matrix
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the zero map's one zero column gives a zero row, as pinv does, with no
    # RuntimeWarning (an error in this suite)
    zero = canonicalize(CpMap(2, 3, (np.zeros((2, 3)),)))
    w, wp = _prepare(zero)
    assert np.array_equal(wp, np.zeros((1, 6))) and np.array_equal(wp, np.linalg.pinv(w))
    assert np.array_equal(rn_derivative(zero, zero).matrix, np.zeros((1, 1)))


def test_not_dominated_takes_exact_path(norm_calls):
    # the leak bound cannot pass s, so the dense residual takes its one SVD;
    # t's canonical family, a thin SVD of its stack, is formed before counting
    t = CpMap(2, 2, (np.diag([1.0, 0.0]),))
    s = CpMap(2, 2, (np.eye(2),))
    canonicalize(t)
    norm_calls.clear()
    with pytest.raises(NotDominated) as info:
        rn_derivative(s, t)
    assert dict(norm_calls) == {"op_norm": 1, "svd": 1}
    # the message is the exact SVD residual, as before the pre-test existed
    w, wp = _prepare(canonicalize(t))
    cs = to_choi(s).matrix / 2
    f = numerics.hermitize(wp @ cs @ wp.conj().T)
    resid = numerics.op_norm(w @ f @ w.conj().T - cs)
    assert str(info.value) == f"residual {resid:.3e} outside the dominating map's support"
