"""The calculus's invariances, as a safety net below the bit-level pins.

Goldens and pinned rows compare results to 1e-12, and a change that moves
last bits regenerates them.  The relations here hold for every input and
survive such a change:

- conjugation: V_x -> U V_x W for unitaries U (input side) and W (output
  side) turns T into A -> W* T(U* A U) W, which leaves ``c_min``, the
  spectrum of ``rn_derivative``, ``norm_report``'s two upper bounds
  (``bound_rn`` and ``bound_dilation_diff`` of ``common_dilation``, the
  functions it calls) and the ``dominates`` verdicts unchanged;
- a re-mixed Kraus family: V'_y = sum_x Q[y, x] V_x for an isometry Q with
  one or two more rows than columns is the same map, so every quantity
  above is unchanged;
- scaling: c_min(a s, b t) = (a / b) c_min(s, t);
- symmetry: bound_rn(t1, t2) = bound_rn(t2, t1).

The pairs are t = a + b and s = 0.7 a for random CP maps a and b with
dim_in, dim_out in 1..4, so s <= t.  Each deviation is measured relative
to max(1, |value|), and each tolerance is 25 times the worst case seen over
400 such pairs, rounded up to one significant digit; that worst case, the
larger of the process-operator routes and the Kraus-stack routes that
replaced them for thin families, is given beside it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cp_calculus.cpmap import CpMap, add, scale
from cp_calculus.norms import bound_dilation_diff, bound_rn, common_dilation
from cp_calculus.order import c_min
from cp_calculus.radon import dominates, rn_derivative
from helpers import rand_cp_map, rand_unitary

TOL_C_MIN = 8e-12  # worst 2.9e-13
TOL_SPECTRUM = 8e-12  # worst 2.9e-13, over the sorted eigenvalues
TOL_UPPER_RN = 3e-12  # worst 9.7e-14
TOL_UPPER_DILATION = 3e-13  # worst 8.6e-15
TOL_SCALING = 2e-11  # worst 4.2e-13, over a / b from 1e-3 / 7 to 3 / 1e-2
TOL_SYMMETRY = 7e-15  # worst 2.8e-16

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def pairs(draw):
    """(s, t, rng): t = a + b, s = 0.7 a, and a generator for the transform."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a, b = (rand_cp_map(rng, m, n, n_kraus=int(rng.integers(1, m * n + 2))) for _ in "ab")
    return scale(a, 0.7), add(a, b), rng


def conjugate(t, u, w):
    return CpMap(t.dim_in, t.dim_out, tuple(u @ v @ w for v in t.kraus))


def remix(t, rng):
    """The same map on k + 1 or k + 2 operators mixed by a random isometry."""
    k = len(t.kraus)
    g = rng.standard_normal((k + int(rng.integers(1, 3)), k))
    q = np.linalg.qr(g + 1j * rng.standard_normal(g.shape))[0]
    return CpMap(t.dim_in, t.dim_out, tuple(np.tensordot(q, t.kraus_array, axes=(1, 0))))


def invariants(s, t):
    """Every quantity the first two relations hold fixed, as floats, and
    the two dominates verdicts."""
    spectrum = np.linalg.eigvalsh(rn_derivative(s, t).matrix)
    values = {
        "c_min": np.array([c_min(s, t).value]),
        "spectrum": spectrum,
        "upper_rn": np.array([bound_rn(s, t)]),
        "upper_dilation": np.array([bound_dilation_diff(common_dilation(s, t))]),
    }
    return values, (dominates(s, t), dominates(t, s))


TOLERANCES = {
    "c_min": TOL_C_MIN,
    "spectrum": TOL_SPECTRUM,
    "upper_rn": TOL_UPPER_RN,
    "upper_dilation": TOL_UPPER_DILATION,
}


def deviation(x, y):
    """Largest |x - y| relative to max(1, |x|), entrywise."""
    return float(np.max(np.abs(x - y) / np.maximum(1.0, np.abs(x))))


def check_invariant(before, after):
    (values, verdicts), (moved, moved_verdicts) = before, after
    assert moved_verdicts == verdicts
    for name, tol in TOLERANCES.items():
        assert values[name].shape == moved[name].shape, name
        assert deviation(values[name], moved[name]) <= tol, name


@SETTINGS
@given(pair=pairs())
def test_conjugation_leaves_the_calculus_invariant(pair):
    s, t, rng = pair
    u, w = rand_unitary(rng, t.dim_in), rand_unitary(rng, t.dim_out)
    moved = invariants(conjugate(s, u, w), conjugate(t, u, w))
    check_invariant(invariants(s, t), moved)


@SETTINGS
@given(pair=pairs())
def test_remixed_families_give_the_same_calculus(pair):
    s, t, rng = pair
    check_invariant(invariants(s, t), invariants(remix(s, rng), remix(t, rng)))


@SETTINGS
@given(pair=pairs(), a=st.sampled_from([1e-3, 0.5, 3.0]), b=st.sampled_from([1e-2, 0.25, 7.0]))
def test_c_min_scales_as_the_ratio(pair, a, b):
    s, t, _ = pair
    want = (a / b) * c_min(s, t).value
    got = c_min(scale(s, a), scale(t, b)).value
    assert abs(got - want) <= TOL_SCALING * max(1.0, abs(want))


@SETTINGS
@given(pair=pairs())
def test_bound_rn_is_symmetric(pair):
    s, t, _ = pair
    forward = bound_rn(s, t)
    assert abs(bound_rn(t, s) - forward) <= TOL_SYMMETRY * max(1.0, forward)
