import numpy as np
import pytest

from cp_calculus import cpmap
from cp_calculus.cpmap import (
    ChoiOperator,
    CpMap,
    add,
    apply,
    apply_dual,
    canonicalize,
    choi_rank,
    choi_unnormalized,
    compose,
    dilation_matrix,
    from_choi,
    from_stinespring,
    is_channel,
    is_pure,
    is_quantum_operation,
    scale,
    to_choi,
    to_stinespring,
)
from cp_calculus.errors import DimMismatch, NotHermitian, NotPsd, ShapeMismatch
from cp_calculus.radon import instrument_rn, rn_derivative
from helpers import (
    heisenberg_sum,
    rand_channel,
    rand_cp_map,
    rand_operation,
    reference_apply,
    reference_apply_dual,
    reference_canonical_kraus,
    reference_compose_kraus,
    reference_density,
    reference_kraus_stack,
    reference_to_choi,
)

RNG = np.random.default_rng(20240818)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def identity_map(d=2):
    return CpMap(d, d, (np.eye(d, dtype=complex),))


def depolarizing_like(m, n):
    """Kraus family (1/sqrt m)|e_i><f_mu|, the trace-to-identity channel."""
    kraus = []
    for mu in range(n):
        for i in range(m):
            v = np.zeros((m, n), dtype=complex)
            v[i, mu] = 1.0 / np.sqrt(m)
            kraus.append(v)
    return CpMap(m, n, tuple(kraus))


def matrix_units(d):
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield e


def test_identity_choi_frozen():
    # rank-1 process operator 2|Omega><Omega| with trace 4
    f = to_choi(identity_map())
    expected = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for b in (0, 3):
            expected[a, b] = 2.0
    assert np.allclose(f.matrix, expected, atol=1e-12)
    assert choi_rank(f) == 1
    assert np.trace(f.matrix).real == pytest.approx(4.0, abs=1e-12)


def test_trace_channel_choi_is_identity():
    t = depolarizing_like(2, 2)
    assert np.allclose(to_choi(t).matrix, np.eye(4), atol=1e-12)
    t = depolarizing_like(3, 2)
    assert np.allclose(to_choi(t).matrix, np.eye(6), atol=1e-12)


def test_choi_entry_pairing():
    # F[(mu,i),(nu,j)] = dim_in * <f_mu|T(|e_i><e_j|)|f_nu>
    t = rand_cp_map(RNG, 3, 2)
    f = to_choi(t).matrix
    m, n = 3, 2
    for i in range(m):
        for j in range(m):
            unit = np.zeros((m, m), dtype=complex)
            unit[i, j] = 1.0
            block = heisenberg_sum(t.kraus, unit)
            for mu in range(n):
                for nu in range(n):
                    assert f[mu * m + i, nu * m + j] == pytest.approx(
                        m * block[mu, nu], abs=1e-10
                    )


def test_from_choi_identity_exact():
    t = from_choi(to_choi(identity_map()))
    assert len(t.kraus) == 1
    assert np.allclose(t.kraus[0], np.eye(2), atol=1e-12)


def test_round_trip_action_random():
    for _ in range(30):
        m, n = (int(x) for x in RNG.integers(1, 7, size=2))
        t = rand_cp_map(RNG, m, n)
        back = canonicalize(t)
        for unit in matrix_units(m):
            a = apply(t, unit)
            b = apply(back, unit)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


def test_apply_matches_direct_sum():
    t = rand_cp_map(RNG, 4, 3)
    a = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert np.allclose(apply(t, a), heisenberg_sum(t.kraus, a), atol=1e-12)


def test_apply_dual_trace_duality():
    t = rand_cp_map(RNG, 3, 4)
    a = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3))
    rho = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    lhs = np.trace(apply_dual(t, rho) @ a)
    rhs = np.trace(rho @ apply(t, a))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_stinespring_reconstructs_action():
    for _ in range(10):
        m, n = (int(x) for x in RNG.integers(1, 5, size=2))
        t = rand_cp_map(RNG, m, n)
        s = to_stinespring(t)
        assert s.minimal
        assert s.env_dim == choi_rank(to_choi(t))
        one_env = np.eye(s.env_dim)
        for unit in matrix_units(m):
            lhs = s.matrix.conj().T @ np.kron(unit, one_env) @ s.matrix
            rhs = apply(t, unit)
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_stinespring_identity_and_trace_channel():
    s = to_stinespring(identity_map())
    assert s.env_dim == 1
    assert np.allclose(s.matrix, np.eye(2), atol=1e-12)

    s = to_stinespring(depolarizing_like(2, 2))
    assert s.env_dim == 4
    assert np.allclose(s.matrix.conj().T @ s.matrix, np.eye(2), atol=1e-10)


def test_from_stinespring_round_trip():
    t = rand_cp_map(RNG, 3, 2)
    s = to_stinespring(t)
    back = from_stinespring(s)
    assert np.allclose(to_choi(back).matrix, to_choi(t).matrix, atol=1e-9)


def test_dilation_matrix_stacking_order():
    t = rand_cp_map(RNG, 2, 3, n_kraus=2)
    v = dilation_matrix(t)
    d = len(t.kraus)
    for i in range(2):
        for x in range(d):
            assert np.array_equal(v[i * d + x, :], t.kraus[x][i, :])


def test_classification_frozen_verdicts():
    half = scale(identity_map(), 0.5)
    assert is_quantum_operation(half)
    assert not is_channel(half)
    assert is_pure(half)

    ident = identity_map()
    assert is_quantum_operation(ident)
    assert is_channel(ident)
    assert is_pure(ident)

    assert not is_quantum_operation(scale(identity_map(), 1.5))


def test_random_channel_is_channel():
    for _ in range(5):
        m, n = (int(x) for x in RNG.integers(1, 5, size=2))
        t = rand_channel(RNG, m, n)
        assert is_channel(t)
        assert is_quantum_operation(t)


def test_zero_map_conventions():
    zero = CpMap(2, 3, (np.zeros((2, 3)),))
    assert choi_rank(to_choi(zero)) == 0
    assert not is_pure(zero)
    assert is_quantum_operation(zero)
    canon = canonicalize(zero)
    assert len(canon.kraus) == 1
    assert np.array_equal(canon.kraus[0], np.zeros((2, 3)))
    s = to_stinespring(zero)
    assert s.env_dim == 1
    assert not s.minimal


def test_kraus_validation_names_offender():
    with pytest.raises(ShapeMismatch) as err:
        CpMap(2, 2, (np.eye(2), np.zeros((3, 2))))
    assert "operator 1" in str(err.value)
    with pytest.raises(ShapeMismatch):
        CpMap(2, 2, ())
    with pytest.raises(ShapeMismatch):
        CpMap(2, 2, (np.array([[np.inf, 0], [0, 1]]),))


def test_choi_ctor_validation():
    with pytest.raises(NotPsd):
        ChoiOperator(2, 1, np.diag([1.0, -0.5]))
    with pytest.raises(NotHermitian):
        ChoiOperator(2, 1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        ChoiOperator(2, 2, np.eye(3))


def test_choi_tolerates_tiny_negative():
    c = ChoiOperator(2, 1, np.diag([1.0, -1e-12]))
    assert c.dim_in == 2


def test_scale_add_compose():
    t = rand_cp_map(RNG, 2, 3)
    s = rand_cp_map(RNG, 2, 3)
    a = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    assert np.allclose(apply(scale(t, 0.3), a), 0.3 * apply(t, a), atol=1e-10)
    assert np.allclose(apply(add(t, s), a), apply(t, a) + apply(s, a), atol=1e-10)
    with pytest.raises(ValueError):
        scale(t, -1.0)
    with pytest.raises(DimMismatch):
        add(t, rand_cp_map(RNG, 3, 3))

    u = rand_cp_map(RNG, 3, 4)
    comp = compose(u, t)  # u after t: inputs 2x2, outputs 4x4
    assert (comp.dim_in, comp.dim_out) == (2, 4)
    assert np.allclose(apply(comp, a), apply(u, apply(t, a)), atol=1e-9)
    with pytest.raises(DimMismatch):
        compose(t, t)


# a non-finite factor raised numpy's "invalid value" RuntimeWarning, or, with
# warnings ignored, a ShapeMismatch that named no argument
@pytest.mark.parametrize("c", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_scale_factor_must_be_finite_and_nonnegative(c):
    with pytest.raises(ValueError) as info:
        scale(identity_map(), c)
    assert str(info.value) == f"scale factor must be a finite number >= 0, got {c!r}"


def test_choi_unnormalized_convention():
    t = rand_cp_map(RNG, 3, 2)
    c = to_choi(t)
    assert np.allclose(choi_unnormalized(c) * 3, c.matrix, atol=1e-14)


def test_kraus_arrays_frozen():
    t = identity_map()
    with pytest.raises(ValueError):
        t.kraus[0][0, 0] = 5.0


def test_non_square_round_trip():
    for m, n in ((1, 4), (4, 1), (2, 5), (5, 2)):
        t = rand_operation(RNG, m, n)
        back = canonicalize(t)
        assert np.allclose(to_choi(back).matrix, to_choi(t).matrix, atol=1e-9)


PIN_SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2), (4, 4), (4, 8)]


def pinned_pairs():
    for m, n in PIN_SHAPES:
        for seed in range(3):
            rng = np.random.default_rng([71, m, n, seed])
            part = rand_cp_map(rng, m, n, n_kraus=int(rng.integers(1, 4)))
            other = rand_cp_map(rng, m, n, n_kraus=int(rng.integers(1, m * n + 1)))
            yield pytest.param(part, other, rng, id=f"{m}x{n}-{seed}")


@pytest.mark.parametrize("part, other, rng", pinned_pairs())
def test_stacked_forms_match_per_operator_reference(part, other, rng):
    """The stacked Kraus array and the trusted to_choi give the bits of the
    per-operator reference: to_choi, canonicalize (a thin SVD of the stack
    below m * n operators), rn_derivative and instrument_rn (X X* for
    X = W+ v below m * n operators) exactly; the batched products of apply,
    apply_dual and compose within 1e-12 relative."""
    t = add(part, other)
    for u in (part, other, t):
        assert np.array_equal(to_choi(u).matrix, reference_to_choi(u).matrix)
        assert np.array_equal(cpmap.kraus_stack(u.kraus), reference_kraus_stack(u.kraus))
        canon = canonicalize(u)
        assert np.array_equal(canon.kraus_array, np.array(reference_canonical_kraus(u)))
    assert np.array_equal(rn_derivative(part, t).matrix, reference_density(part, t))
    elements = instrument_rn(t, [part, other]).elements
    for el, p in zip(elements, (part, other), strict=True):
        assert np.array_equal(el, reference_density(p, t))
    m, n = t.dim_in, t.dim_out
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    second = rand_cp_map(rng, n, m, n_kraus=2)
    pairs = [
        (apply(t, a), reference_apply(t, a)),
        (apply_dual(t, rho), reference_apply_dual(t, rho)),
        (compose(second, t).kraus_array, np.array(reference_compose_kraus(second, t))),
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
