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

import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cp_calculus import cpmap, radon
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
from helpers import dense_canonical, dense_density, rand_complex, rand_cp_map

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


def outcome(density, s, w, wp):
    """("pass", F) or ("NotDominated", message), and how many process
    operators ``density`` formed through radon's binding of to_choi."""
    seen = []

    def counted(t):
        seen.append(t)
        return to_choi(t)

    with mock.patch.object(radon, "to_choi", counted):
        try:
            return ("pass", density(s, w, wp)), len(seen)
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
    w, wp = radon._prepare(canonicalize(t))
    ((verdict, got), formed), ((want_verdict, want), _) = (
        outcome(radon._density, s, w, wp),
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


def test_thin_operands_form_no_process_operator(monkeypatch):
    # s = a / 2 and t = a + b on stacks of 2 and 4 columns at 4 x 4: the
    # derivative calls, the order test and the difference of a dominated s
    # form no process operator, t's canonical family included (a leak's
    # dense residual forms s's), nor does faithful_rn, whose constant
    # dominates by construction; instrument_rn forms each part's and t's
    # once, for its sum check
    seen = []
    orig = cpmap.to_choi

    def counted(t):
        seen.append(t)
        return orig(t)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cp_calculus.") and getattr(mod, "to_choi", None) is orig:
            monkeypatch.setattr(mod, "to_choi", counted)
    rng = np.random.default_rng(2701)
    a, b = (rand_cp_map(rng, 4, 4, n_kraus=2) for _ in "ab")
    s, t = scale(a, 0.5), add(a, b)
    rn_derivative(s, t)
    c_min(s, t)
    rescaled_kraus(s, t)
    assert dominates(s, t)
    cp_difference(t, s)
    faithful_rn(t, FaithfulState(p=np.full(4, 0.25)))
    assert seen == []
    parts = [s, add(scale(a, 0.5), b)]
    instrument_rn(t, parts)
    assert [id(x) for x in seen] == [id(x) for x in (t, *parts)]


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
