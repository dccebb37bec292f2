"""Radon-Nikodym calculus for the complete-positivity order.

S <= T means T - S is completely positive.  For dominated pairs there is a
unique operator F on the environment of T's minimal dilation V with
0 <= F <= 1 and S(A) = V*(A (x) F)V; this module extracts F, re-expands it
into maps, and decomposes instruments into such densities.

Extraction works on the canonical Kraus stack W (columns vec(V_x*)): the
unnormalized process matrix of S equals W F W* up to scaling, so
F = W+ @ choi_unnormalized(S) @ W+*, W+ being W* with row x divided by
||w_x||^2 (W's columns are orthogonal).  Reconstruction residual and
the eigenvalue window of F are the density's domination criterion, run in
place of an order check; ``dominates`` tests process operators, and the
two can disagree within about 1e-9.  This compression is the library's
one density computation, and the dominating Kraus family is the dominator:
c_min is F's top eigenvalue; duality inverts its own block-diagonal stack.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _prepare(family: CpMap) -> tuple[np.ndarray, np.ndarray]:
    """(W, W+) for a ``from_choi`` family (``canonicalize(t)`` is one), which
    a dominating map's densities live on: its operators are eigenvectors
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
    two checks are the density's domination criterion, which can contradict
    ``dominates`` within about 1e-9.  T's canonical family,
    its stack W and W's closed-form inverse are computed once per map
    object, so every S against one ``t`` reuses them.
    """
    _check_same_dims(s, t)
    return _derivative(to_choi(s), canonicalize(t))


def _density(c: ChoiOperator, w: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """F = wp C wp* for c's unnormalized process matrix C and wp w's inverse
    on its range; raises NotDominated when w F w* misses C, a leak outside it."""
    cs = choi_unnormalized(c)
    f = hermitize(wp @ cs @ wp.conj().T)
    resid = norm_excess(w @ f @ w.conj().T - cs, recon_tol, cs)
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


def _derivative(c: ChoiOperator, family: CpMap) -> RnDerivative:
    """rn_derivative of the map with process operator ``c`` on a dominating family."""
    f = _density(c, *_prepare(family))
    _check_window(f, NotDominated)
    return RnDerivative(
        dim_in=c.dim_in,
        dim_out=c.dim_out,
        env_dim=len(family.kraus),
        matrix=f,
    )


def rn_reconstruct(t: CpMap, f) -> CpMap:
    """Expand a density on T's canonical environment back into a map.

    Accepts an RnDerivative or a bare matrix, Hermitian by the rule
    ChoiOperator applies (NotHermitian otherwise) with spectrum in [0, 1]
    (NotPsd otherwise); the result is returned in canonical Kraus form and
    is dominated by ``t`` by construction.  T's canonical family and its
    stack W come from the map's memo.
    """
    family = canonicalize(t)
    d = len(family.kraus)
    mat = as_matrix(f.matrix if isinstance(f, RnDerivative) else f)
    if mat.shape != (d, d):
        raise ShapeMismatch(f"density has shape {mat.shape}, environment dim is {d}")
    _check_hermitian(mat)
    h = hermitize(mat)
    _check_window(h, NotPsd)
    w = _prepare(family)[0]
    choi = t.dim_in * (w @ h @ w.conj().T)
    return from_choi(_trusted_choi(t.dim_in, t.dim_out, hermitize(choi)))


def rescaled_kraus(s: CpMap, t: CpMap) -> RescaledKraus:
    """Rotate T's canonical family so S becomes a spectral reweighting.

    Diagonalizing the density F = sum_x lam_x |phi_x><phi_x| and setting
    W_x = sum_y conj(phi_x[y]) V_y gives T(A) = sum W_x* A W_x and
    S(A) = sum lam_x W_x* A W_x with weights descending in [0, 1].
    """
    _check_same_dims(s, t)
    family = canonicalize(t)
    e = herm_eig(_derivative(to_choi(s), family).matrix)
    weights = np.clip(e.values, 0.0, 1.0)
    rotated = np.tensordot(e.vectors.conj(), family.kraus_array, axes=(0, 0))
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
    return _instrument_rn(canonicalize(t), chois)


def _instrument_rn(family: CpMap, chois) -> PovmDecomposition:
    """Densities of process operators that sum to the dominating family's
    map by construction; instrument_rn checks the sum of parts from outside.
    Each density has passed _check_window, so only the resolution is checked."""
    mats = [_frozen(_derivative(c, family).matrix) for c in chois]
    return _trusted(PovmDecomposition, elements=_resolution(mats))
