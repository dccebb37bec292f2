"""Completely positive maps between matrix algebras, Heisenberg picture.

A map is stored as a finite Kraus family {V_x} of dim_in x dim_out matrices
acting on observables as T(A) = sum_x V_x* A V_x, so inputs are
dim_in x dim_in and outputs dim_out x dim_out.  The module provides the
process-operator (Choi) and dilation (Stinespring) views of the same object
plus the classification predicates.

The Choi operator follows the amplification scaling: for the maximally
entangled unit vector Psi on the doubled input space,

    F = dim_in^2 * (T (x) id)(|Psi><Psi|),

an operator on the output (x) input space with entries
F[(mu,i),(nu,j)] = dim_in * <f_mu| T(|e_i><e_j|) |f_nu>.  The common
unnormalized convention is F / dim_in; see :func:`choi_unnormalized`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPsd, ShapeMismatch
from .numerics import (
    EPS_HERM,
    EPS_PSD,
    RANK_TOL,
    _canonical_eig,
    as_matrix,
    hermitize,
    op_norm,
    psd_leq,
)


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class CpMap:
    """Kraus representation of a CP map, Heisenberg picture."""

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ShapeMismatch("dimensions must be at least 1")
        if not self.kraus:
            raise ShapeMismatch("a CP map needs at least one Kraus operator")
        ops = []
        for idx, v in enumerate(self.kraus):
            v = as_matrix(v)
            if v.shape != (self.dim_in, self.dim_out):
                raise ShapeMismatch(
                    f"kraus operator {idx} has shape {v.shape}, "
                    f"expected {(self.dim_in, self.dim_out)}"
                )
            ops.append(_frozen(v))
        object.__setattr__(self, "kraus", tuple(ops))


@dataclass(frozen=True)
class ChoiOperator:
    """Process operator of a CP map on the output (x) input space."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise ShapeMismatch("dimensions must be at least 1")
        m = as_matrix(self.matrix)
        d = self.dim_in * self.dim_out
        if m.shape != (d, d):
            raise ShapeMismatch(f"expected shape {(d, d)}, got {m.shape}")
        dev = op_norm(m - m.conj().T)
        scale = op_norm(m)
        if dev > EPS_HERM * max(1.0, scale):
            raise NotHermitian(f"deviation from Hermiticity {dev:.3e}")
        low = float(np.linalg.eigvalsh(hermitize(m))[0])
        if low < -EPS_PSD * max(1.0, scale):
            raise NotPsd(f"eigenvalue {low:.3e} below zero at scale {scale:.3e}")
        object.__setattr__(self, "matrix", _frozen(m))


@dataclass(frozen=True)
class StinespringDilation:
    """Single-operator dilation T(A) = V*(A (x) 1_env)V.

    ``matrix`` has shape (dim_in * env_dim) x dim_out with the environment
    index fastest, i.e. row (i, x) = i * env_dim + x holds component x of
    the image of basis vector i.
    """

    dim_in: int
    dim_out: int
    env_dim: int
    matrix: np.ndarray
    minimal: bool

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.dim_in * self.env_dim, self.dim_out):
            raise ShapeMismatch(
                f"expected shape {(self.dim_in * self.env_dim, self.dim_out)}, "
                f"got {m.shape}"
            )
        object.__setattr__(self, "matrix", _frozen(m))


def _check_same_dims(s: CpMap, t: CpMap):
    if (s.dim_in, s.dim_out) != (t.dim_in, t.dim_out):
        raise DimMismatch(
            f"maps have dims {(s.dim_in, s.dim_out)} and {(t.dim_in, t.dim_out)}"
        )


def apply(t: CpMap, a) -> np.ndarray:
    """Heisenberg action sum_x V_x* A V_x on a dim_in x dim_in matrix."""
    a = as_matrix(a)
    if a.shape != (t.dim_in, t.dim_in):
        raise ShapeMismatch(f"expected {(t.dim_in, t.dim_in)}, got {a.shape}")
    out = np.zeros((t.dim_out, t.dim_out), dtype=complex)
    for v in t.kraus:
        out += v.conj().T @ a @ v
    return out


def apply_dual(t: CpMap, rho) -> np.ndarray:
    """Predual action sum_x V_x rho V_x* on a dim_out x dim_out matrix."""
    rho = as_matrix(rho)
    if rho.shape != (t.dim_out, t.dim_out):
        raise ShapeMismatch(f"expected {(t.dim_out, t.dim_out)}, got {rho.shape}")
    out = np.zeros((t.dim_in, t.dim_in), dtype=complex)
    for v in t.kraus:
        out += v @ rho @ v.conj().T
    return out


def kraus_stack(kraus) -> np.ndarray:
    """Column-stack vec(V_x*) for a Kraus family.

    The Choi operator equals dim_in times the outer product W W* of this
    stack, which is what ties the kernel calculus to plain linear algebra.
    """
    return np.column_stack([as_matrix(v).conj().T.reshape(-1) for v in kraus])


def to_choi(t: CpMap) -> ChoiOperator:
    """Process operator of ``t`` (amplification scaling, see module docs)."""
    w = kraus_stack(t.kraus)
    return ChoiOperator(t.dim_in, t.dim_out, t.dim_in * (w @ w.conj().T))


def choi_unnormalized(c: ChoiOperator) -> np.ndarray:
    """The common unnormalized process matrix, matrix / dim_in."""
    return c.matrix / c.dim_in


def choi_rank(c: ChoiOperator, rank_tol: float = RANK_TOL) -> int:
    """Number of eigenvalues above rank_tol times the largest."""
    w = np.linalg.eigvalsh(hermitize(c.matrix))
    top = float(w[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(w >= rank_tol * top))


def from_choi(c: ChoiOperator) -> CpMap:
    """Canonical Kraus family of a process operator.

    Eigenvectors with eigenvalue >= RANK_TOL * largest become Kraus
    operators sqrt(lam / dim_in) * unvec; the deterministic eigensystem
    makes the family canonical (ChoiOperator has checked Hermiticity).  A
    rank-zero input yields the zero map as a single all-zero operator.
    """
    m, n = c.dim_in, c.dim_out
    e = _canonical_eig(c.matrix)
    top = float(e.values[0]) if e.values.size else 0.0
    kraus = []
    if top > 0.0:
        for k, lam in enumerate(e.values):
            if lam < RANK_TOL * top:
                break
            u = e.vectors[:, k].reshape(n, m)
            kraus.append(np.sqrt(lam / m) * u.conj().T)
    if not kraus:
        kraus.append(np.zeros((m, n), dtype=complex))
    return CpMap(m, n, tuple(kraus))


def canonicalize(t: CpMap) -> CpMap:
    """Canonical Kraus representation via the process-operator eigensystem."""
    return from_choi(to_choi(t))


def dilation_matrix(t: CpMap) -> np.ndarray:
    """Stack the Kraus family as given into a single dilation operator."""
    m, n = t.dim_in, t.dim_out
    return np.stack(t.kraus, axis=1).reshape(m * len(t.kraus), n)


def to_stinespring(t: CpMap) -> StinespringDilation:
    """Dilation built on the canonical Kraus family.

    env_dim equals the number of canonical operators.  ``from_choi`` keeps
    exactly the eigenvalues at or above RANK_TOL times the largest, so the
    family is minimal unless the map is zero, which keeps one zero
    operator and is flagged non-minimal.
    """
    canon = canonicalize(t)
    d = len(canon.kraus)
    minimal = bool(np.any(canon.kraus[0]))
    return StinespringDilation(
        dim_in=t.dim_in,
        dim_out=t.dim_out,
        env_dim=d,
        matrix=dilation_matrix(canon),
        minimal=minimal,
    )


def from_stinespring(s: StinespringDilation) -> CpMap:
    """Read the Kraus family back off a dilation (inverse stacking)."""
    arr = s.matrix.reshape(s.dim_in, s.env_dim, s.dim_out)
    return CpMap(s.dim_in, s.dim_out, tuple(arr[:, x, :] for x in range(s.env_dim)))


def scale(t: CpMap, c: float) -> CpMap:
    """The map c * T for c >= 0, via sqrt(c)-scaled Kraus operators."""
    c = float(c)
    if c < 0.0:
        raise ValueError("scale factor must be nonnegative")
    root = np.sqrt(c)
    return CpMap(t.dim_in, t.dim_out, tuple(root * v for v in t.kraus))


def add(t1: CpMap, t2: CpMap) -> CpMap:
    """Sum of two CP maps with matching dimensions (Kraus union)."""
    if (t1.dim_in, t1.dim_out) != (t2.dim_in, t2.dim_out):
        raise DimMismatch(
            f"cannot add maps of dims {(t1.dim_in, t1.dim_out)} "
            f"and {(t2.dim_in, t2.dim_out)}"
        )
    return CpMap(t1.dim_in, t1.dim_out, t1.kraus + t2.kraus)


def compose(second: CpMap, first: CpMap) -> CpMap:
    """Heisenberg composition (second o first)(A) = second(first(A))."""
    if first.dim_out != second.dim_in:
        raise DimMismatch(
            f"cannot compose output dim {first.dim_out} into input dim {second.dim_in}"
        )
    kraus = tuple(v @ w for v in first.kraus for w in second.kraus)
    return CpMap(first.dim_in, second.dim_out, kraus)


def is_quantum_operation(t: CpMap, tol: float = EPS_PSD) -> bool:
    """True when T(1) <= 1, i.e. the map is subunital."""
    return psd_leq(apply(t, np.eye(t.dim_in)), np.eye(t.dim_out), tol)


def is_channel(t: CpMap, tol: float = EPS_PSD) -> bool:
    """True when T(1) = 1 within tolerance."""
    return op_norm(apply(t, np.eye(t.dim_in)) - np.eye(t.dim_out)) <= tol


def is_pure(t: CpMap) -> bool:
    """True when the process operator has rank one (single-operator form)."""
    return choi_rank(to_choi(t)) == 1
