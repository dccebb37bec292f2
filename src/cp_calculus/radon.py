"""Radon-Nikodym calculus for the complete-positivity order.

S <= T means T - S is completely positive.  For dominated pairs there is a
unique operator F on the environment of T's minimal dilation V with
0 <= F <= 1 and S(A) = V*(A (x) F)V; this module extracts F, re-expands it
into maps, and decomposes instruments into such densities.

Extraction works on the canonical Kraus stack W (columns vec(V_x*)): the
unnormalized process matrix of S equals W F W^T-conjugate up to scaling, so
F = pinv(W) @ choi_unnormalized(S) @ pinv(W)*.  Reconstruction residual and
the eigenvalue window of F together decide domination exactly, which is why
no separate order check is run first.  This compression is the library's
one density computation: c_min is F's top eigenvalue, and faithful_rn takes
F on the faithful channel's own, linearly independent, Kraus family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cpmap import (
    ChoiOperator,
    CpMap,
    _check_hermitian,
    _check_same_dims,
    _columns,
    _frozen,
    _trusted,
    _trusted_choi,
    canonicalize,
    choi_unnormalized,
    from_choi,
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
    as_matrix,
    herm_eig,
    hermitize,
    norm_excess,
    pinv,
    psd_leq,
    recon_tol,
)


def dominates(s: CpMap, t: CpMap, tol: float = EPS_PSD) -> bool:
    """True when T - S is completely positive (process-operator order)."""
    _check_same_dims(s, t)
    return psd_leq(to_choi(s).matrix, to_choi(t).matrix, tol)


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
        if not self.elements:
            raise ShapeMismatch("a POVM needs at least one element")
        mats = []
        d = None
        for idx, f in enumerate(self.elements):
            f = as_matrix(f)
            if f.shape[0] != f.shape[1]:
                raise ShapeMismatch(f"element {idx} is not square: {f.shape}")
            if d is None:
                d = f.shape[0]
            elif f.shape[0] != d:
                raise ShapeMismatch(f"element {idx} has dim {f.shape[0]}, expected {d}")
            _check_hermitian(f, f"element {idx}: ")
            w = np.linalg.eigvalsh(hermitize(f))
            if w[0] < -EPS_PSD * max(1.0, -w[0], w[-1]):
                raise NotPsd(f"element {idx} has eigenvalue {w[0]:.3e}")
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


class _Dominator(NamedTuple):
    """A dominating map prepared once for every density taken against it:
    the Kraus family whose environment the densities live on (canonical, or
    one the caller fixes), its stack W and pinv(W) with no cutoff (canonical
    stacks keep singular values >= sqrt(RANK_TOL) * largest)."""

    family: CpMap
    w: np.ndarray
    wp: np.ndarray


def _prepare(family: CpMap) -> _Dominator:
    """Prepare a dominating map on the Kraus family its densities live on:
    ``canonicalize(t)``, or a linearly independent one the caller fixes."""
    w = _columns(family.kraus_array)
    return _Dominator(family, w, pinv(w, 0.0))


def rn_derivative(s: CpMap, t: CpMap) -> RnDerivative:
    """Extract the unique density F with S(A) = V*(A (x) F)V.

    Raises NotDominated when the reconstruction residual exceeds tolerance
    (support escape) or F's spectrum leaves [0, 1] beyond EPS_PSD; those
    two checks are exactly the domination criterion.
    """
    _check_same_dims(s, t)
    return _derivative(to_choi(s), _prepare(canonicalize(t)))


def _density(c: ChoiOperator, dom: _Dominator) -> np.ndarray:
    """F = pinv(W) C pinv(W)* for c's unnormalized process matrix C; raises
    NotDominated when W F W* misses C, a leak outside the dominator's support."""
    cs = choi_unnormalized(c)
    f = hermitize(dom.wp @ cs @ dom.wp.conj().T)
    resid = norm_excess(dom.w @ f @ dom.w.conj().T - cs, recon_tol, cs)
    if resid is not None:
        raise NotDominated(
            f"residual {resid:.3e} outside the dominating map's support"
        )
    return f


def _check_window(f: np.ndarray, error) -> None:
    """Raise ``error`` unless the Hermitian f has spectrum in [0, 1]."""
    eigs = np.linalg.eigvalsh(f)
    if eigs[0] < -EPS_PSD or eigs[-1] > 1.0 + EPS_PSD:
        raise error(
            f"density spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] escapes [0, 1]"
        )


def _derivative(c: ChoiOperator, dom: _Dominator) -> RnDerivative:
    """rn_derivative of the map with process operator ``c`` on a dominator."""
    f = _density(c, dom)
    _check_window(f, NotDominated)
    return RnDerivative(
        dim_in=c.dim_in,
        dim_out=c.dim_out,
        env_dim=len(dom.family.kraus),
        matrix=f,
    )


def rn_reconstruct(t: CpMap, f) -> CpMap:
    """Expand a density on T's canonical environment back into a map.

    Accepts an RnDerivative or a bare matrix, Hermitian by the rule
    ChoiOperator applies (NotHermitian otherwise) with spectrum in [0, 1]
    (NotPsd otherwise); the result is returned in canonical Kraus form and
    is dominated by ``t`` by construction.
    """
    family = canonicalize(t)
    d = len(family.kraus)
    mat = as_matrix(f.matrix if isinstance(f, RnDerivative) else f)
    if mat.shape != (d, d):
        raise ShapeMismatch(f"density has shape {mat.shape}, environment dim is {d}")
    _check_hermitian(mat)
    h = hermitize(mat)
    _check_window(h, NotPsd)
    w = _columns(family.kraus_array)
    choi = t.dim_in * (w @ h @ w.conj().T)
    return from_choi(_trusted_choi(t.dim_in, t.dim_out, hermitize(choi)))


def rescaled_kraus(s: CpMap, t: CpMap) -> RescaledKraus:
    """Rotate T's canonical family so S becomes a spectral reweighting.

    Diagonalizing the density F = sum_x lam_x |phi_x><phi_x| and setting
    W_x = sum_y conj(phi_x[y]) V_y gives T(A) = sum W_x* A W_x and
    S(A) = sum lam_x W_x* A W_x with weights descending in [0, 1].
    """
    _check_same_dims(s, t)
    dom = _prepare(canonicalize(t))
    e = herm_eig(_derivative(to_choi(s), dom).matrix)
    weights = np.clip(e.values, 0.0, 1.0)
    rotated = np.einsum("yx,ymn->xmn", e.vectors.conj(), dom.family.kraus_array)
    return RescaledKraus(
        dim_in=t.dim_in,
        dim_out=t.dim_out,
        kraus=tuple(rotated[x] for x in range(rotated.shape[0])),
        weights=weights,
    )


def cp_difference(t: CpMap, s: CpMap) -> CpMap:
    """The CP map T - S for a dominated pair, in canonical Kraus form.

    S <= T is decided with psd_leq, the test ``dominates`` runs; the
    difference is then PSD and is built without a second check."""
    _check_same_dims(s, t)
    ct, cs = to_choi(t), to_choi(s)
    if not psd_leq(cs.matrix, ct.matrix):
        raise NotDominated("difference is not completely positive")
    return from_choi(_difference(ct, cs))


def _difference(ct: ChoiOperator, cs: ChoiOperator) -> ChoiOperator:
    """Process operator of T - S from those of a pair with S <= T."""
    return _trusted_choi(ct.dim_in, ct.dim_out, hermitize(ct.matrix - cs.matrix))


def instrument_rn(t: CpMap, parts) -> PovmDecomposition:
    """Derivatives of an instrument's parts form a POVM on T's environment.

    ``parts`` must sum to ``t``; each density F_i = D_T(part_i) is PSD and
    the family resolves the identity on the canonical environment.
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
    return _instrument_rn(_prepare(from_choi(ct)), chois)


def _instrument_rn(dom: _Dominator, chois) -> PovmDecomposition:
    """Densities of process operators that sum to the dominator's map by
    construction; instrument_rn checks the sum of parts from outside.  Each
    density has passed _check_window, so only the resolution is checked."""
    mats = [_frozen(_derivative(c, dom).matrix) for c in chois]
    return _trusted(PovmDecomposition, elements=_resolution(mats))
