"""Dense complex linear algebra kernel used by the higher layers.

Conventions: matrices are numpy arrays of complex128; vec flattens row-major
(reshape(-1)), so vec(A X B) = (A (x) B^T) vec(X); Hermitian eigensystems
come back with eigenvalues descending and eigenvector phases fixed, which
makes every decomposition built on top of them deterministic for identical
input.  Tolerances are module constants rather than per-call magic numbers;
a residual is held to its tolerance by ``norm_excess``, which takes an SVD only
where Frobenius bounds on the residual and its scale cannot decide the check.
Every PSD-order verdict goes through ``is_psd``, one eigvalsh of the
Hermitian part.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

EPS_PSD = 1e-9      # PSD slack, relative to max(1, scale)
EPS_HERM = 1e-8     # Hermiticity deviation, relative to the operator norm
EPS_PHASE = 1e-10   # smallest component magnitude used to fix a phase
RANK_TOL = 1e-10    # relative eigenvalue cutoff, see psd_rank
MAX_DIM = 2 ** 14   # cap on environment, Naimark and loaded dimensions


def recon_tol(scale: float) -> float:
    """Reconstruction tolerance at a given operator-norm scale."""
    return 1e-9 * max(1.0, float(scale))


def as_count(value, name: str, error=ValueError, least: int = 1) -> int:
    """``value`` as an int, once it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}")
    return int(value)


def as_tol(tol) -> float:
    """``tol`` as a float, once it is a finite real number (not a bool) >= 0."""
    if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 <= tol < np.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return float(tol)


def as_matrix(a, shape=None, what: str = "matrix") -> np.ndarray:
    """Coerce to a complex 2-d array, without copying, rejecting non-finite
    entries and, with ``shape`` given, sides below 1 (checked first) and any
    other shape; the one place a shape meets its expected one."""
    if shape and min(shape) < 1:
        raise ShapeMismatch("dimensions must be at least 1")
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite")
    if shape is not None and m.shape != shape:
        raise ShapeMismatch(f"{what} has shape {m.shape}, expected {shape}")
    return m


def hermitize(m) -> np.ndarray:
    """Project onto the Hermitian part, (m + m*)/2, of a square matrix
    the caller has validated or derived (no finiteness scan)."""
    m = np.asarray(m, dtype=complex)
    return (m + m.conj().T) / 2.0


def partial_trace(m, over: str, d1: int, d2: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on C^d1 (x) C^d2.

    ``over`` selects the factor: "first" returns a d2 x d2 matrix, "second"
    a d1 x d1 matrix.  Each dim is checked by as_count, raising ShapeMismatch.
    """
    d1, d2 = (as_count(d, "dimensions", ShapeMismatch) for d in (d1, d2))
    t = as_matrix(m, (d1 * d2, d1 * d2)).reshape(d1, d2, d1, d2)
    if over == "first":
        return np.einsum("ikil->kl", t)
    if over == "second":
        return np.einsum("ikjk->ij", t)
    raise ValueError("over must be 'first' or 'second'")


def op_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def norm_excess(r, tol, c=None) -> float | None:
    """None if ||r|| <= tol, or <= tol(||c||) for a nondecreasing tol when c
    is given; else ||r||.  ||r||_F bounds ||r|| above and c's largest column
    norm (capped at 1e154, where its square overflows) bounds ||c|| below, so
    ||r||_F <= tol(that) / 2 passes with no SVD; ||c||_F bounds ||c|| above, so
    ||r|| > tol(2 ||c||_F) fails with no SVD of c, the 1/2 and 2 absorbing rounding."""
    with np.errstate(over="ignore"):
        fro = np.linalg.norm(r)
        low = 0.0 if c is None else np.sqrt((c.real**2 + c.imag**2).sum(0).max())
    if fro <= 0.5 * (tol if c is None else tol(min(float(low), 1e154))):
        return None
    resid = op_norm(r)
    if c is not None:
        with np.errstate(over="ignore"):
            limit = tol(2.0 * np.linalg.norm(c))
        tol = limit if resid > limit else tol(op_norm(c))
    return None if resid <= tol else resid


@dataclass(frozen=True)
class HermEig:
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    ``vectors`` holds orthonormal eigenvector columns whose first component
    of magnitude above EPS_PHASE has been made real positive; together with
    the deterministic tie-break this pins the decomposition of a given
    input down to a unique matrix.
    """

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(m) -> HermEig:
    """Eigendecompose a Hermitian matrix deterministically.

    The input is assumed Hermitian and is not checked: eigh runs on
    hermitize(m).  Each eigenvector column is scaled so that its first
    component of magnitude above EPS_PHASE is real positive (they have
    unit norm, so each has one).  Eigenvalues are sorted descending; exact
    ties are broken by the phase-fixed components' (real, imag) parts,
    largest first, so the standard basis comes out in natural order for
    diagonal input.
    """
    return canonical_eig(*np.linalg.eigh(hermitize(m)))


def canonical_eig(w, u) -> HermEig:
    """herm_eig's phase fix and order on eigenpairs (w ascending, u's columns)."""
    n = u.shape[1]
    # np.hypot rounds like the scalar abs(); the vectorised np.abs does not
    mag = np.hypot(u.real, u.imag)
    first = np.argmax(mag > EPS_PHASE, axis=0)
    cols = np.arange(n)
    u = u * (np.conj(u[first, cols]) / mag[first, cols])
    if np.all(w[1:] != w[:-1]):
        order = cols[::-1]
    else:
        parts = np.stack([-u.real, -u.imag], axis=1).reshape(2 * len(u), n)
        order = np.lexsort(np.vstack([parts[::-1], -w]))
    return HermEig(values=w[order], vectors=u[:, order])


def is_psd(m, tol: float = EPS_PSD) -> bool:
    """The one PSD rule: the Hermitian part of a square, finite m (as_matrix) has
    lowest eigenvalue w[0] >= -tol * max(1, largest |eigenvalue|), tol through as_tol."""
    tol = as_tol(tol)
    w = np.linalg.eigvalsh(hermitize(as_matrix(m, np.shape(m)[:1] * 2)))
    return bool(w[0] >= -tol * max(1.0, -w[0], w[-1]))


def psd_rank(values, tol: float = RANK_TOL) -> int:
    """How many descending ``values`` are >= tol times the first; 0 unless it is > 0."""
    if not len(values) or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values >= tol * values[0]))


def psd_sqrt(m) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Input is assumed PSD, as herm_eig assumes it Hermitian.  Only the
    eigenpairs psd_rank keeps (from_choi's cut) enter, so rounding's zeros
    add no sqrt(eps) terms; with none kept, the root is 0.
    """
    e = herm_eig(m)
    u = e.vectors[:, : psd_rank(e.values)]
    return (u * np.sqrt(e.values[: u.shape[1]])) @ u.conj().T
