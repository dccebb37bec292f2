"""The Kraus-stack routes against the process-operator routes they replace.

A family of k < dim_in * dim_out operators is canonicalized by a thin SVD of
its stack, and its density on a dominating family is X X* for X = W+ v,
passing with no process operator when the leak bound decides.  Here each
route meets the dense reference in ``tests/helpers.py``
(``dense_canonical`` and ``dense_density``) on rank-deficient, tie-heavy
and leaking s, s = (1 +- eps) t for eps on a log grid from 1e-12 to 1e-6,
and s outside t's range with ||C_s|| on the tolerance line, at sides up to
16 x 16:

- the residual verdicts, and every NotDominated message, are identical;
- the verdict-only leak test (``dominates``, ``c_min``) refutes exactly
  what the dense residual refutes, on thin and wide s against
  rank-deficient and spanning t, with the squared leak per column on a
  log grid across recon_tol;
- a pass with no process operator keeps half the tolerance in hand: the
  exact residual is at most recon_tol(max_x ||v_x||^2) / 2, the margin
  that keeps rounding in the leak bound from passing a residual the dense
  rule fails;
- the densities agree within 1e-12 max(1, ||F||);
- the spectrum ``radon._spectrum`` reads from the density and its factor
  (the Gram X* X and F's kernel when X is thin) has the dense F's ends
  within TOL_SPECTRUM max(1, ||F||), and the [0, 1] window gives the dense
  verdict wherever both dense ends lie outside that band around the
  window's edges;
- the canonical families' process operators agree within 1e-12 of the
  largest entry, and their eigenvalues within 1e-14 of the top one.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp_calculus import radon
from cp_calculus.cpmap import CpMap, add, canonicalize, kraus_stack, scale, to_choi
from cp_calculus.duality import FaithfulState, faithful_rn
from cp_calculus.errors import NotDominated
from cp_calculus.numerics import EPS_PSD, op_norm, recon_tol
from cp_calculus.order import c_min
from cp_calculus.radon import (
    cp_difference,
    dominates,
    instrument_rn,
    rescaled_kraus,
    rn_derivative,
    rn_reconstruct,
)
from helpers import (
    dense_canonical,
    dense_density,
    rand_complex,
    rand_cp_map,
    reference_canonical_kraus,
    reference_density,
    reference_kraus_stack,
    reference_to_choi,
)

SHAPES = [(1, 2), (2, 2), (2, 3), (3, 2), (4, 4), (4, 8), (8, 4), (16, 16)]
EPS_GRID = np.logspace(-12.0, -6.0, 13).tolist()
LEAKS = [1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-14]
# 25 times the worst end deviation seen over 3,000 examples of ``cases``,
# relative to max(1, ||F||), rounded up: 5.9e-13 (6.4e-16 on the Gram route)
TOL_SPECTRUM = 2e-11


def from_columns(m, n, cols):
    """The map whose stack (columns vec(V_x*)) is ``cols``."""
    return CpMap(m, n, tuple(c.reshape(n, m).conj().T for c in cols.T))


def isometry(rng, rows, cols):
    return np.linalg.qr(rand_complex(rng, rows, cols))[0]


@st.composite
def cases(draw):
    """(s, t) with t's stack of k_t <= max(1, m n / 2) columns: Gaussian,
    equal singular values (every eigenvalue tied), or of rank below k_t;
    s's stack has fewer than m n columns where m n > 1."""
    m, n = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    side = m * n
    k_t = draw(st.integers(1, max(1, side // 2)))
    k_s = draw(st.integers(1, max(1, side - 1)))
    shape = draw(st.sampled_from(["gaussian", "ties", "rank_deficient"]))
    if shape == "ties":
        w = 0.7 * isometry(rng, side, k_t)
    elif shape == "rank_deficient" and k_t > 1:
        w = rand_complex(rng, side, k_t - 1) @ rand_complex(rng, k_t - 1, k_t) / k_t
    else:
        w = rand_complex(rng, side, k_t) / np.sqrt(side)
    t = from_columns(m, n, w)
    kind = draw(st.sampled_from(["inside", "scaled", "leaking", "line"]))
    if kind == "scaled":
        eps = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(EPS_GRID))
        return scale(t, 1.0 + eps), t
    if kind == "line" and k_t < side:
        # a unit vector outside t's range, at ||C_s|| / m = 1e-9 (1 + j eps)
        e = np.linalg.svd(w)[0][:, -1]
        j = draw(st.integers(-16, 16))
        return from_columns(m, n, np.sqrt(1e-9 * (1.0 + j * 2.0**-52)) * e[:, None]), t
    # inside: s's stack is w A; for k_s >= k_t, A A* = 1/4, so s = t / 4 on a
    # stack of rank k_t < k_s when k_s > k_t; leaking adds delta B
    if k_s >= k_t:
        v = w @ (0.5 * isometry(rng, k_s, k_t).conj().T)
    else:
        v = w @ rand_complex(rng, k_t, k_s) / k_t
    if kind == "leaking":
        v = v + draw(st.sampled_from(LEAKS)) * rand_complex(rng, side, k_s)
    return from_columns(m, n, v), t


def outcome(density, s, *dominator):
    """("pass", F) or ("NotDominated", message) of density(s, *dominator),
    and how many process operators it formed through radon's binding of to_choi."""
    seen = []

    def counted(t):
        seen.append(t)
        return to_choi(t)

    with mock.patch.object(radon, "to_choi", counted):
        try:
            return ("pass", density(s, *dominator)), len(seen)
        except NotDominated as err:
            return ("NotDominated", str(err)), len(seen)


def exact_margin(s, w, wp):
    """||w F w* - C_s|| over recon_tol(max_x ||v_x||^2), F the dense density."""
    cs = to_choi(s).matrix / s.dim_in
    f = dense_density(s, w, wp)
    v = kraus_stack(s.kraus)
    low = float((v.real**2 + v.imag**2).sum(axis=0).max())
    return op_norm(w @ f @ w.conj().T - cs) / recon_tol(low)


def window_fails(eigs):
    """Whether radon's [0, 1] window rejects the spectrum ``eigs``."""
    try:
        radon._check_window(eigs, NotDominated)
    except NotDominated:
        return True
    return False


def eigenvalues(family):
    """m ||w_x||^2 for the canonical stack's orthogonal columns."""
    w = kraus_stack(family.kraus)
    return family.dim_in * (w.real**2 + w.imag**2).sum(axis=0)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_stack_routes_match_the_dense_references(case):
    s, t = case
    for u in (s, t):
        got, want = canonicalize(u), dense_canonical(u)
        c_got, c_want = to_choi(got).matrix, to_choi(want).matrix
        assert np.abs(c_got - c_want).max() <= 1e-12 * np.abs(c_want).max()
        lam_got, lam_want = eigenvalues(got), eigenvalues(want)
        assert lam_got.shape == lam_want.shape
        assert np.abs(lam_got - lam_want).max() <= 1e-14 * lam_want[0]
    family = canonicalize(t)
    w, wp = radon._prepare(family)  # for the dense references
    ((verdict, got), formed), ((want_verdict, want), _) = (
        outcome(radon._density, s, family),
        outcome(dense_density, s, w, wp),
    )
    assert verdict == want_verdict
    if verdict == "pass" and not formed:
        assert exact_margin(s, w, wp) <= 0.5 * (1.0 + 1e-6)
    if verdict == "pass":
        got, factor = got
        scale_f = max(1.0, float(np.linalg.norm(want, 2)))
        assert np.abs(got - want).max() <= 1e-12 * scale_f
        # the spectrum's ends, and the window's verdict off its rounding band
        eigs, dense = radon._spectrum(got, factor), np.linalg.eigvalsh(want)
        band = TOL_SPECTRUM * scale_f
        assert abs(eigs.min() - dense[0]) <= band and abs(eigs.max() - dense[-1]) <= band
        if min(abs(dense[0] + EPS_PSD), abs(dense[-1] - 1.0 - EPS_PSD)) > band:
            outside = dense[0] < -EPS_PSD or dense[-1] > 1.0 + EPS_PSD
            assert window_fails(eigs) == outside
    else:
        assert got == want


LEAK_SHAPES = [(2, 2), (2, 3), (3, 2), (4, 4), (8, 8)]
# squared leak per column, eight points a decade across recon_tol's 1e-9
LEAK_SQ = np.logspace(-11.0, -7.0, 33).tolist()


@st.composite
def leak_cases(draw):
    """(s, t) for the verdict-only leak test, at sides 2 x 2 to 8 x 8.  t's
    stack has rank m n, or r < m n on k_t >= r columns.  s's stack, thin or
    wide, is q copies of one column of t's range at squared norm c beside j
    columns of squared norm eps2 along orthonormal directions outside it
    ("split": the residual is -E E*, of norm eps2, and ||C_s|| = max(q c,
    eps2)), or t's stack times A, ||A||^2 = a, plus columns of squared norm
    eps2 in random directions ("mixed")."""
    m, n = draw(st.sampled_from(LEAK_SHAPES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    side = m * n
    rank = side if draw(st.booleans()) else draw(st.integers(1, side - 1))
    k_t = draw(st.integers(rank, side))
    w = rand_complex(rng, side, rank) @ rand_complex(rng, rank, k_t) / side
    basis = np.linalg.svd(w)[0]  # range, then its complement
    k_s, eps2 = draw(st.integers(1, 2 * side)), draw(st.sampled_from(LEAK_SQ))
    if draw(st.sampled_from(["split", "mixed"])) == "split":
        j = min(draw(st.integers(1, 8)), side - rank, k_s)
        u = basis[:, :rank] @ rand_complex(rng, rank, 1)
        u *= np.sqrt(draw(st.sampled_from([1e-10, 0.1, 1.0, 10.0]))) / np.linalg.norm(u)
        out = np.sqrt(eps2) * basis[:, rank : rank + j]
        v = np.hstack([np.repeat(u, k_s - j, axis=1), out])
    else:
        a = rand_complex(rng, k_t, k_s)
        a *= np.sqrt(draw(st.sampled_from([0.5, 1.0, 2.0]))) / np.linalg.norm(a, 2)
        b = rand_complex(rng, side, k_s)
        v = w @ a + np.sqrt(eps2) * b / np.linalg.norm(b, axis=0)
    return from_columns(m, n, v), from_columns(m, n, w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=leak_cases())
def test_leak_verdicts_match_the_reference(case):
    # c_min is inf exactly when rn_derivative raises its residual
    # NotDominated, so the stack's leak test refutes only what the dense
    # rule refutes; off a 1e-6 band around the tolerance, that verdict is
    # the reference residual's, and a finite c_min and dominates read the
    # reference density's top eigenvalue
    s, t = case
    top = c_min(s, t).value
    try:
        rn_derivative(s, t)
        refuted = False
    except NotDominated as err:
        refuted = str(err).startswith("residual ")
    assert (top == np.inf) == refuted
    f = reference_density(s, t)
    w = reference_kraus_stack(reference_canonical_kraus(t))
    cs = reference_to_choi(s).matrix / s.dim_in
    ratio = op_norm(w @ f @ w.conj().T - cs) / recon_tol(op_norm(cs))
    if abs(ratio - 1.0) > 1e-6:
        assert refuted == (ratio > 1.0)
    if refuted:
        assert not dominates(s, t)
        return
    ref = float(np.linalg.eigvalsh(f)[-1])
    band = 1e-10 * max(1.0, abs(ref))
    assert abs(top - max(0.0, ref)) <= band
    if abs(ref - 1.0 - EPS_PSD) > band:
        assert dominates(s, t) == (ref <= 1.0 + EPS_PSD)


def split_leak(q, c, j, eps2):
    """(s, t) at 4 x 4: t of rank 8, and s's stack q copies of one column of
    t's range at squared norm c beside j orthonormal columns outside it at
    squared norm eps2, so ||C_s|| = max(q c, eps2) and the residual is
    -E E*, of norm eps2."""
    rng = np.random.default_rng(3401)
    w = rand_complex(rng, 16, 8)
    basis = np.linalg.svd(w)[0]
    u = np.sqrt(c) * basis[:, :1]
    v = np.hstack([np.repeat(u, q, axis=1), np.sqrt(eps2) * basis[:, 8 : 8 + j]])
    return from_columns(4, 4, v), from_columns(4, 4, w)


@pytest.mark.parametrize(
    "q, c, j, eps2",
    [
        # four columns at 0.8e-9 each: ||E||^2 = 0.8e-9 passes recon_tol's
        # 1e-9, while ||E||_F^2 = 3.2e-9 would clear the test's 2e-9
        (0, 1.0, 4, 0.8e-9),
        # ||C_s|| = 12 admits a leak of 8e-9, which clears the test's line
        # at the heaviest column's scale, 2 recon_tol(2), but not at
        # ||v||_F^2's, 2 recon_tol(24)
        (12, 1.0, 1, 8e-9),
    ],
    ids=["frobenius", "heaviest_scale"],
)
def test_leak_test_refutes_only_what_the_dense_rule_refutes(norm_calls, q, c, j, eps2):
    s, t = split_leak(q, c, j, eps2)
    rn_derivative(s, t)
    assert c_min(s, t).value < np.inf
    assert dominates(s, t) == (c_min(s, t).value <= 1.0 + EPS_PSD)
    # ten times the leak is refuted on the stack, with no SVD
    s, t = split_leak(q, c, j, 10.0 * eps2)
    canonicalize(t)
    norm_calls.clear()
    assert c_min(s, t).value == np.inf
    assert dict(norm_calls) == {}
    with pytest.raises(NotDominated, match="^residual "):
        rn_derivative(s, t)


def test_thin_operands_form_no_process_operator(choi_calls, norm_calls):
    # s = a / 2 and t = a + b on stacks of 2 and 4 columns at 4 x 4: the
    # derivative calls, the order test and the difference of a dominated s
    # form no process operator, t's canonical family included, nor does
    # faithful_rn, whose constant dominates by construction; instrument_rn
    # forms each part's and t's once, for its sum check.  A leak, t against
    # s or a wide map of 16 operators against t, is refuted by dominates and
    # c_min on the stack, with no process operator and no SVD; rn_derivative,
    # whose message is the exact residual, forms the leaking map's and takes
    # one SVD
    rng = np.random.default_rng(2701)
    a, b = (rand_cp_map(rng, 4, 4, n_kraus=2) for _ in "ab")
    s, t = scale(a, 0.5), add(a, b)
    rn_derivative(s, t)
    c_min(s, t)
    rescaled_kraus(s, t)
    assert dominates(s, t)
    cp_difference(t, s)
    faithful_rn(t, FaithfulState(p=np.full(4, 0.25)))
    assert choi_calls == []
    parts = [s, add(scale(a, 0.5), b)]
    instrument_rn(t, parts)
    assert [id(x) for x in choi_calls] == [id(x) for x in (t, *parts)]
    for leak, dom in ((t, s), (rand_cp_map(rng, 4, 4, n_kraus=16), t)):
        canonicalize(dom)
        choi_calls.clear()
        norm_calls.clear()
        assert not dominates(leak, dom)
        assert c_min(leak, dom).value == np.inf
        assert choi_calls == [] and dict(norm_calls) == {}
        with pytest.raises(NotDominated, match="^residual "):
            rn_derivative(leak, dom)
        assert [id(x) for x in choi_calls] == [id(leak)]
        assert dict(norm_calls) == {"op_norm": 1, "svd": 1}


def test_each_density_is_factored_once(monkeypatch):
    # at 16 x 16, s = a / 2 on 32 columns and t = a + b on 64: the derivative
    # calls read s's spectrum from its 32-side Gram, and faithful_rn t's from
    # its 64-side one, below the environments of 64 and 256; rn_reconstruct
    # factors its density once, the window reading that eigensystem's values
    sides = []
    for name in ("eigvalsh", "eigh"):
        orig = getattr(np.linalg, name)

        def counted(m, *args, _name=name, _orig=orig, **kwargs):
            sides.append((_name, len(m)))
            return _orig(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(2901)
    a, b = (rand_cp_map(rng, 16, 16, n_kraus=32) for _ in "ab")
    s, t = scale(a, 0.5), add(a, b)
    env = len(canonicalize(t).kraus)
    assert env == 64
    for call in (rn_derivative, c_min):
        sides.clear()
        call(s, t)
        assert sides == [("eigvalsh", 32)]
    sides.clear()
    faithful_rn(t, FaithfulState(p=np.full(16, 1.0 / 16)))
    assert sides == [("eigvalsh", 64)]
    f = rn_derivative(s, t)
    sides.clear()
    rn_reconstruct(t, f)
    assert sides == [("eigh", env)]


def test_reconstruct_canonicalizes_only_the_weighted_operators(monkeypatch):
    # at 16 x 16, s = 0.6 a on t = a + b, 64 operators each: F's kernel scales
    # half of t's 128 rotated operators to rounding's roots, and the thin SVD
    # of the reconstruction sees only the rank(F) = 64 weighted ones; its
    # process operator is the whole rotated family's within 1e-12
    rng = np.random.default_rng(3001)
    a, b = (rand_cp_map(rng, 16, 16, n_kraus=64) for _ in "ab")
    s, t = scale(a, 0.6), add(a, b)
    f = rn_derivative(s, t).matrix
    lam, ops = radon._rotated(f, canonicalize(t))
    whole = to_choi(CpMap(16, 16, ops * np.sqrt(np.maximum(lam, 0.0))[:, None, None]))
    shapes = []
    orig = np.linalg.svd

    def counted(m, *args, **kwargs):
        shapes.append(m.shape)
        return orig(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    back = rn_reconstruct(t, f)
    assert shapes == [(256, 64)]
    got = to_choi(back).matrix
    assert np.abs(got - whole.matrix).max() <= 1e-12 * np.abs(whole.matrix).max()
    # F = 0 keeps one operator, the zero map's
    zero = rn_reconstruct(t, np.zeros_like(f))
    assert len(zero.kraus) == 1 and not zero.kraus_array.any()
