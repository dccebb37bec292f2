"""Radon-Nikodym calculus for the complete-positivity order.

S <= T means T - S is completely positive.  For dominated pairs there is a
unique operator F on the environment of T's minimal dilation V with
0 <= F <= 1 and S(A) = V*(A (x) F)V; this module extracts F, re-expands it
into maps, and decomposes instruments into such densities.

Extraction works on the canonical Kraus stack W (columns vec(V_x*)): the
unnormalized process matrix of S equals W F W* up to scaling, so
F = W+ @ choi_unnormalized(S) @ W+*, W+ being W* with row x divided by
||w_x||^2 (W's columns are orthogonal).  A thin S (``cpmap._thin``) skips
C_S = v v*, v its own stack: F = X X* for X = W+ v, and the residual R, at
most 2 ||W X||_F ||E||_F + ||E||_F^2 for the leak E = v - W X, passes when
that is within half the tolerance at v's largest squared column norm (a
lower bound on ||C_S||); else C_S decides, so verdicts and messages stay.
A verdict alone (``_top``) fails with no C_S and no SVD once a column j has
||E e_j||^2 > 2 recon_tol(2 ||v||_F^2), since R = -E E* off W's range and
||C_S|| <= ||v||_F^2; it reads a thin S's columns, a wide S's heaviest one.
Reconstruction residual and the eigenvalue window of F are the library's
one domination criterion (S <= T iff F exists with spectrum in [0, 1]).
This compression is its one density computation, on the dominating Kraus
family ``_density`` takes: c_min is F's top eigenvalue, ``dominates`` holds
it to 1 + tol; faithful_rn's square stack needs no residual test.  ``_spectrum``
takes F's spectrum once, from the Gram X* X and F's kernel when X has fewer
columns than rows.  rn_reconstruct reweights T's family rotated by F's
eigenvectors, the family rescaled_kraus returns, and windows that one
eigensystem's values; cp_difference reweights that family by 1 - F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import (
    ChoiOperator,
    CpMap,
    _canonical,
    _check_hermitian,
    _check_psd,
    _check_same_dims,
    _columns,
    _frozen,
    _thin,
    _trusted,
    _trusted_map,
    canonicalize,
    choi_unnormalized,
    to_choi,
)
from .errors import (
    NotADecomposition,
    NotAResolution,
    NotDominated,
    NotPsd,
    ShapeMismatch,
)
from .numerics import (
    EPS_PSD,
    RANK_TOL,
    as_matrix,
    as_tol,
    herm_eig,
    hermitize,
    norm_excess,
    psd_rank,
    recon_tol,
)


def dominates(s: CpMap, t: CpMap, tol: float = EPS_PSD) -> bool:
    """True when T - S is completely positive: c_min(s, t) <= 1 + tol, the density's
    spectrum at most ``tol`` (through as_tol) above 1, and False for any leak."""
    return _top(s, t) <= 1.0 + as_tol(tol)


def _top(s: CpMap, t: CpMap, cs=None, ct=None) -> float:
    """Top of s's density spectrum on t's canonical environment; inf for a leak
    (the stack's test first); ``cs`` and ``ct`` the maps' held process operators."""
    _check_same_dims(s, t)
    try:
        return float(_spectrum(*_density(s, _canonical(t, ct), cs, True)).max())
    except NotDominated:
        return float("inf")


@dataclass(frozen=True)
class RnDerivative:
    """Derivative density on the canonical environment of the dominating map."""

    dim_in: int
    dim_out: int
    env_dim: int
    matrix: np.ndarray


@dataclass(frozen=True)
class RescaledKraus:
    """Kraus family of the dominating map rotated so the dominated map is
    a plain reweighting: S(A) = sum_x weights[x] W_x* A W_x."""

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    weights: np.ndarray


@dataclass(frozen=True)
class PovmDecomposition:
    """Environment POVM arising from an instrument decomposition."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ShapeMismatch("a POVM needs at least one element")
        shape = np.shape(elements[0])[:1] * 2  # (d, d), d the first element's rows
        mats = []
        for idx, f in enumerate(elements):
            f = as_matrix(f, shape, f"element {idx}")
            _check_psd(f, f"element {idx}: ")
            mats.append(_frozen(f.copy()))
        object.__setattr__(self, "elements", _resolution(mats))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def _resolution(mats) -> tuple[np.ndarray, ...]:
    """The elements, once they sum to the identity within recon_tol(1)."""
    dev = norm_excess(sum(mats) - np.eye(len(mats[0])), recon_tol(1.0))
    if dev is not None:
        raise NotAResolution(f"elements sum to identity + {dev:.3e}")
    return tuple(mats)


def _prepare(family: CpMap) -> tuple[np.ndarray, np.ndarray]:
    """(W, W+) for a canonical family (``from_choi``'s or ``canonicalize``'s),
    which a dominating map's densities live on: its operators are eigenvectors
    scaled by sqrt(lam / dim_in), so W+ is W* with row x divided by
    ||w_x||^2, and the zero map's zero column gives a zero row.  Taken once
    per family and kept in its instance dict, as ``canonicalize`` keeps its own."""
    stack = family.__dict__.get("_stack")
    if stack is None:
        w = _columns(family.kraus_array)
        wp = np.ascontiguousarray(w.conj().T)
        sq = (wp.real**2 + wp.imag**2).sum(axis=1)
        wp /= np.where(sq > 0.0, sq, 1.0)[:, None]
        stack = family.__dict__["_stack"] = (w, wp)
    return stack


def rn_derivative(s: CpMap, t: CpMap) -> RnDerivative:
    """Extract the unique density F with S(A) = V*(A (x) F)V.

    Raises NotDominated when the reconstruction residual exceeds tolerance
    (support escape) or F's spectrum leaves [0, 1] beyond EPS_PSD; those
    two checks are the domination criterion ``dominates`` reads at its
    default tol.  T's canonical family, its stack W and W's closed-form
    inverse are computed once per map object, so every S against one ``t``
    reuses them.
    """
    _check_same_dims(s, t)
    return _derivative(s, canonicalize(t))


def _density(s: CpMap, family: CpMap, c: ChoiOperator | None = None, verdict: bool = False):
    """(F, X): F = wp C wp* for the unnormalized process matrix C of the map s
    and (w, wp) the dominating ``family``'s _prepare, and X with F = X X* when
    the stack route decided, else None; raises NotDominated when w F w* misses
    C, a leak outside it, first by the leak test for a ``verdict``.  A thin s takes
    the stack route; else C is ``c``, s's process operator, when the caller holds it."""
    (w, wp), e = _prepare(family), None
    if _thin(s):
        v = _columns(s.kraus_array)  # C = v v*
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the test
            x = wp @ v
            wx = w @ x
            e = v - wx
            leak, cols = np.linalg.norm(e), np.linalg.norm(v, axis=0) ** 2
            bound = 2.0 * np.linalg.norm(wx) * leak + leak**2  # >= ||w F w* - C||
        if s.dim_in * cols.sum() < np.inf and bound <= 0.5 * recon_tol(cols.max()):
            return hermitize(x @ x.conj().T), x
    elif verdict and len(wp) < len(w):  # nothing leaks out of a square w
        r = s.kraus_array.reshape(len(s.kraus), -1).view(float)  # C-ordered
        with np.errstate(over="ignore", invalid="ignore"):
            cols = (r[:, None] @ r[:, :, None]).ravel()  # squared column norms of v
            e = _columns(s.kraus_array[[cols.argmax()]])  # the heaviest column
            e = e - w @ (wp @ e)
    if verdict and e is not None and s.dim_in * cols.sum() < np.inf:
        top = np.linalg.norm(e, axis=0).max() ** 2  # inf or nan: a tiny t's W+ overflowed
        if 2.0 * recon_tol(2.0 * cols.sum()) < top < np.inf:
            raise NotDominated("a stack column leaks out of the dominating map's support")
    cs = choi_unnormalized(to_choi(s) if c is None else c)
    f = hermitize(wp @ cs @ wp.conj().T)
    resid = norm_excess(w @ f @ w.conj().T - cs, recon_tol, cs)
    if resid is not None:
        raise NotDominated(
            f"residual {resid:.3e} outside the dominating map's support"
        )
    return f, None


def _spectrum(f: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """F's eigenvalues, unordered (readers take their min and max): for a
    factor X of F = X X* with fewer columns than rows, F's kernel, one zero
    per missing column, and the eigenvalues of the smaller Gram X* X; else F's own."""
    thin = x is not None and x.shape[1] < x.shape[0]
    eigs = np.linalg.eigvalsh(x.conj().T @ x if thin else f)
    return np.concatenate([np.zeros(len(f) - len(eigs)), eigs])


def _check_window(eigs: np.ndarray, error) -> None:
    """Raise ``error`` unless the spectrum ``eigs`` lies in [0, 1] within EPS_PSD."""
    lo, hi = eigs.min(), eigs.max()
    if lo < -EPS_PSD or hi > 1.0 + EPS_PSD:
        raise error(
            f"density spectrum [{lo:.3e}, {hi:.3e}] escapes [0, 1] by "
            f"{max(-lo, hi - 1.0):.3e}"
        )


def _derivative(s: CpMap, family: CpMap, c: ChoiOperator | None = None) -> RnDerivative:
    """rn_derivative of s on a dominating family, ``c`` as ``_density`` takes it."""
    f, x = _density(s, family, c)
    _check_window(_spectrum(f, x), NotDominated)
    return RnDerivative(
        dim_in=s.dim_in, dim_out=s.dim_out, env_dim=len(family.kraus), matrix=f
    )


def rn_reconstruct(t: CpMap, f) -> CpMap:
    """Expand a density on T's canonical environment back into a map.

    Accepts an RnDerivative or a bare matrix, Hermitian by the rule
    ChoiOperator applies (NotHermitian otherwise) with spectrum in [0, 1]
    (NotPsd otherwise, read off the rotation's eigenvalues).  The map is
    rescaled_kraus's family read backwards, each operator psd_rank keeps
    scaled by the root of its eigenvalue of F (one, scaled to 0, when none
    is kept), in canonical form and dominated by ``t`` by construction.
    """
    family = canonicalize(t)
    d = len(family.kraus)
    mat = as_matrix(f.matrix if isinstance(f, RnDerivative) else f, (d, d), "density")
    _check_hermitian(mat)
    return _reweighted(t, *_rotated(hermitize(mat), family, NotPsd))


def _reweighted(t: CpMap, lam: np.ndarray, ops: np.ndarray) -> CpMap:
    """sum_x lam_x W_x* . W_x for descending ``lam`` on the rotated family
    ``ops``, scaled in place: the operators psd_rank keeps, as canonical form."""
    ops *= np.sqrt(np.maximum(lam, 0.0))[:, None, None]
    return canonicalize(_trusted_map(t.dim_in, t.dim_out, ops[: psd_rank(lam) or 1]))


def _rotated(f: np.ndarray, family: CpMap, error=NotDominated) -> tuple[np.ndarray, ...]:
    """F's eigenvalues lam_x, descending, windowed (``error``), and the family
    rotated by its eigenvectors phi_x: W_x = sum_y conj(phi_x[y]) V_y, fresh."""
    e = herm_eig(f)
    _check_window(e.values, error)
    return e.values, np.tensordot(e.vectors.conj(), family.kraus_array, axes=(0, 0))


def rescaled_kraus(s: CpMap, t: CpMap) -> RescaledKraus:
    """Rotate T's canonical family so S becomes a spectral reweighting.

    Diagonalizing the density F = sum_x lam_x |phi_x><phi_x| and setting
    W_x = sum_y conj(phi_x[y]) V_y gives T(A) = sum W_x* A W_x and
    S(A) = sum lam_x W_x* A W_x with weights descending in [0, 1].
    """
    _check_same_dims(s, t)
    family = canonicalize(t)
    lam, rotated = _rotated(_density(s, family)[0], family)
    weights = np.clip(lam, 0.0, 1.0)
    return RescaledKraus(
        dim_in=t.dim_in, dim_out=t.dim_out, kraus=tuple(rotated), weights=weights
    )


def cp_difference(t: CpMap, s: CpMap) -> CpMap:
    """The CP map T - S for a dominated pair, in canonical Kraus form.

    D_T(T - S) = 1 - D_T(S): rescaled_kraus's family (its NotDominated
    decides S <= T) reweighted by 1 - lam_x, weights below RANK_TOL read as 0,
    as T's own density is 1 only to rounding (T - T is the zero map)."""
    r = rescaled_kraus(s, t)
    rest = 1.0 - r.weights[::-1]
    return _reweighted(t, np.where(rest < RANK_TOL, 0.0, rest), np.array(r.kraus[::-1]))


def instrument_rn(t: CpMap, parts) -> PovmDecomposition:
    """Derivatives of an instrument's parts form a POVM on T's environment.

    ``parts`` must sum to ``t``; each density F_i = D_T(part_i) is PSD and
    the family resolves the identity on the canonical environment; the sum
    check's process operators serve wide maps' densities and canonical form.
    """
    parts = list(parts)
    if not parts:
        raise NotADecomposition("an instrument needs at least one part")
    for p in parts:
        _check_same_dims(p, t)
    ct = to_choi(t)
    chois = [to_choi(p) for p in parts]
    dev = norm_excess(sum(c.matrix for c in chois) - ct.matrix, recon_tol, ct.matrix)
    if dev is not None:
        raise NotADecomposition(f"parts sum differs from the map by {dev:.3e}")
    family = _canonical(t, ct)
    # each density has passed _check_window, so only the resolution is checked
    mats = [_frozen(_derivative(p, family, c).matrix) for p, c in zip(parts, chois)]
    return _trusted(PovmDecomposition, elements=_resolution(mats))
