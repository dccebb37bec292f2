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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPsd, ShapeMismatch
from .numerics import (
    EPS_HERM,
    EPS_PSD,
    RANK_TOL,
    as_count,
    as_matrix,
    herm_eig,
    hermitize,
    is_psd,
    norm_excess,
    psd_leq,
    psd_rank,
)


def _frozen(m) -> np.ndarray:
    """``m`` as a C-ordered complex array, frozen in place; its entries must
    be finite.  Callers pass a copy, or on the trusted path an array no one
    else writes to; there finiteness is the one check kept, as products
    of finite numbers can overflow."""
    m = np.ascontiguousarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise ShapeMismatch("matrix entries must be finite")
    m.setflags(write=False)
    return m


def _dims(*dims) -> tuple[int, ...]:
    """Each dimension as an int through as_count, which raises ShapeMismatch."""
    return tuple(as_count(d, "dimensions", ShapeMismatch) for d in dims)


def _operators(kraus, shape=None) -> list[np.ndarray]:
    """A nonempty Kraus family's operators, each through as_matrix at ``shape``."""
    kraus = tuple(kraus)
    if not kraus:
        raise ShapeMismatch("a CP map needs at least one Kraus operator")
    shape = np.shape(kraus[0]) if shape is None else shape
    return [as_matrix(v, shape, f"kraus operator {i}") for i, v in enumerate(kraus)]


@dataclass(frozen=True)
class CpMap:
    """Kraus representation of a CP map, Heisenberg picture.

    The family is one frozen (k, dim_in, dim_out) array, ``kraus_array``;
    ``kraus`` holds its read-only slices.  The constructor validates each
    operator; maps derived from validated ones take ``_trusted_map``.
    """

    dim_in: int
    dim_out: int
    kraus: tuple[np.ndarray, ...]
    kraus_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = _frozen(_operators(self.kraus, _dims(self.dim_in, self.dim_out)))
        self.__dict__.update(kraus=tuple(ops), kraus_array=ops)


def _check_hermitian(m: np.ndarray, prefix: str = "") -> None:
    """Raise NotHermitian if ||m - m*|| > EPS_HERM * max(1, ||m||)."""
    dev = norm_excess(m - m.conj().T, lambda s: EPS_HERM * max(1.0, s), m)
    if dev is not None:
        raise NotHermitian(f"{prefix}deviation from Hermiticity {dev:.3e}")


def _check_psd(m: np.ndarray, prefix: str = "") -> None:
    """_check_hermitian, then raise NotPsd unless is_psd(m); eigvalsh words a failure."""
    _check_hermitian(m, prefix)
    if not is_psd(m):
        w = np.linalg.eigvalsh(hermitize(m))
        scale = max(-w[0], w[-1])
        raise NotPsd(f"{prefix}eigenvalue {w[0]:.3e} below zero at scale {scale:.3e}")


@dataclass(frozen=True)
class ChoiOperator:
    """Process operator of a CP map on the output (x) input space.

    The constructor checks shape, finiteness, Hermiticity and positivity;
    ``to_choi``, PSD by construction, takes the trusted ``_trusted_choi``.
    """

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        m, n = _dims(self.dim_in, self.dim_out)  # each: -1 * -1 would pass as a side
        f = as_matrix(self.matrix, (m * n, m * n))
        _check_psd(f)
        object.__setattr__(self, "matrix", _frozen(f.copy()))


def _trusted(cls, **fields):
    """An instance of a frozen result class on fields the library derived
    from validated inputs, built without the class's checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _trusted_map(m: int, n: int, ops: np.ndarray, cls=CpMap) -> CpMap:
    """CpMap on a (k, m, n) Kraus array derived from validated maps."""
    ops = _frozen(ops)
    return _trusted(cls, dim_in=m, dim_out=n, kraus=tuple(ops), kraus_array=ops)


def _trusted_choi(m: int, n: int, matrix: np.ndarray) -> ChoiOperator:
    """ChoiOperator on a matrix that is Hermitian PSD by construction."""
    return _trusted(ChoiOperator, dim_in=m, dim_out=n, matrix=_frozen(matrix))


@dataclass(frozen=True)
class StinespringDilation:
    """Single-operator dilation T(A) = V*(A (x) 1_env)V.

    ``matrix`` has shape (dim_in * env_dim) x dim_out with the environment
    index fastest, i.e. row (i, x) = i * env_dim + x holds component x of
    the image of basis vector i.  Every dimension must be at least 1.
    """

    dim_in: int
    dim_out: int
    env_dim: int
    matrix: np.ndarray
    minimal: bool

    def __post_init__(self):
        m, n, e = _dims(self.dim_in, self.dim_out, self.env_dim)
        object.__setattr__(self, "matrix", _frozen(as_matrix(self.matrix, (m * e, n)).copy()))


def _check_same_dims(s: CpMap, t: CpMap):
    if (s.dim_in, s.dim_out) != (t.dim_in, t.dim_out):
        raise DimMismatch(
            f"maps have dims {(s.dim_in, s.dim_out)} and {(t.dim_in, t.dim_out)}"
        )


def apply(t: CpMap, a) -> np.ndarray:
    """Heisenberg action sum_x V_x* A V_x on a dim_in x dim_in matrix."""
    a = as_matrix(a, (t.dim_in, t.dim_in), "input")
    ops = t.kraus_array
    return (ops.conj().transpose(0, 2, 1) @ a @ ops).sum(axis=0)


def apply_dual(t: CpMap, rho) -> np.ndarray:
    """Predual action sum_x V_x rho V_x* on a dim_out x dim_out matrix."""
    rho = as_matrix(rho, (t.dim_out, t.dim_out), "input")
    ops = t.kraus_array
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)


def kraus_stack(kraus) -> np.ndarray:
    """Column-stack vec(V_x*) for a Kraus family.

    The Choi operator equals dim_in times the outer product W W* of this
    stack, which is what ties the kernel calculus to plain linear algebra.
    """
    return _columns(np.array(_operators(kraus)))


def _columns(ops: np.ndarray) -> np.ndarray:
    """kraus_stack of a validated (k, m, n) Kraus array, in one expression."""
    k, m, n = ops.shape
    return ops.conj().transpose(2, 1, 0).reshape(n * m, k)


def to_choi(t: CpMap) -> ChoiOperator:
    """Process operator of ``t`` (amplification scaling, see module docs).

    m W W* is Hermitian PSD by construction, so it takes the trusted path:
    only an overflowed, non-finite product raises."""
    w = _columns(t.kraus_array)
    return _trusted_choi(t.dim_in, t.dim_out, t.dim_in * (w @ w.conj().T))


def choi_unnormalized(c: ChoiOperator) -> np.ndarray:
    """The common unnormalized process matrix, matrix / dim_in."""
    return c.matrix / c.dim_in


def choi_rank(c: ChoiOperator, rank_tol: float = RANK_TOL) -> int:
    """Number of eigenvalues at or above rank_tol times the largest."""
    return psd_rank(np.linalg.eigvalsh(hermitize(c.matrix))[::-1], rank_tol)


def from_choi(c: ChoiOperator) -> CpMap:
    """Canonical Kraus family of a process operator.

    The eigenvectors psd_rank keeps (RANK_TOL's cut) become Kraus
    operators sqrt(lam / dim_in) * unvec; the deterministic eigensystem
    makes the family canonical (a ChoiOperator is Hermitian, by check or
    by construction).  A rank-zero input yields the zero map as a single
    all-zero operator.  The family is built on the trusted path.
    """
    m, n = c.dim_in, c.dim_out
    e = herm_eig(c.matrix)
    k = psd_rank(e.values)
    if not k:
        return _trusted_map(m, n, np.zeros((1, m, n), dtype=complex))
    u = e.vectors[:, :k].T.reshape(k, n, m)
    return _trusted_map(
        m, n, np.sqrt(e.values[:k] / m)[:, None, None] * u.conj().transpose(0, 2, 1)
    )


def canonicalize(t: CpMap) -> CpMap:
    """Canonical Kraus representation via the process-operator eigensystem.

    Computed once per map object and kept in its instance dict, out of
    ``repr``, ``==`` and the dataclass fields: maps are immutable values,
    so making ``kraus_array`` writable voids this memo just as it voids the
    constructor's checks."""
    canon = t.__dict__.get("_canonical")
    if canon is None:
        canon = t.__dict__["_canonical"] = from_choi(to_choi(t))
    return canon


def dilation_matrix(t: CpMap) -> np.ndarray:
    """Stack the Kraus family as given into a single dilation operator."""
    m, n = t.dim_in, t.dim_out
    rows = np.array(t.kraus_array.swapaxes(0, 1), order="C")
    return rows.reshape(m * len(t.kraus), n)


def to_stinespring(t: CpMap) -> StinespringDilation:
    """Dilation built on the canonical Kraus family.

    env_dim equals the number of canonical operators.  ``from_choi`` keeps
    exactly the eigenvalues at or above RANK_TOL times the largest, so the
    family is minimal unless the map is zero, which keeps one zero
    operator and is flagged non-minimal.
    """
    canon = canonicalize(t)
    return _trusted(
        StinespringDilation,
        dim_in=t.dim_in,
        dim_out=t.dim_out,
        env_dim=len(canon.kraus),
        matrix=_frozen(dilation_matrix(canon)),
        minimal=bool(np.any(canon.kraus[0])),
    )


def from_stinespring(s: StinespringDilation) -> CpMap:
    """Read the Kraus family back off a dilation (inverse stacking)."""
    arr = s.matrix.reshape(s.dim_in, s.env_dim, s.dim_out)
    return _trusted_map(s.dim_in, s.dim_out, arr.swapaxes(0, 1))


def scale(t: CpMap, c: float) -> CpMap:
    """The map c * T for c >= 0, via sqrt(c)-scaled Kraus operators."""
    c = float(c)
    if c < 0.0:
        raise ValueError("scale factor must be nonnegative")
    return _trusted_map(t.dim_in, t.dim_out, np.sqrt(c) * t.kraus_array)


def add(t1: CpMap, t2: CpMap) -> CpMap:
    """Sum of two CP maps with matching dimensions (Kraus union)."""
    if (t1.dim_in, t1.dim_out) != (t2.dim_in, t2.dim_out):
        raise DimMismatch(
            f"cannot add maps of dims {(t1.dim_in, t1.dim_out)} "
            f"and {(t2.dim_in, t2.dim_out)}"
        )
    return _trusted_map(
        t1.dim_in, t1.dim_out, np.concatenate((t1.kraus_array, t2.kraus_array))
    )


def compose(second: CpMap, first: CpMap) -> CpMap:
    """Heisenberg composition (second o first)(A) = second(first(A))."""
    if first.dim_out != second.dim_in:
        raise DimMismatch(
            f"cannot compose output dim {first.dim_out} into input dim {second.dim_in}"
        )
    ops = first.kraus_array[:, None] @ second.kraus_array[None, :]
    return _trusted_map(first.dim_in, second.dim_out, ops.reshape(-1, *ops.shape[2:]))


def is_quantum_operation(t: CpMap, tol: float = EPS_PSD) -> bool:
    """True when T(1) <= 1, i.e. the map is subunital."""
    return psd_leq(apply(t, np.eye(t.dim_in)), np.eye(t.dim_out), tol)


def is_channel(t: CpMap, tol: float = EPS_PSD) -> bool:
    """True when T(1) = 1 within tolerance."""
    return norm_excess(apply(t, np.eye(t.dim_in)) - np.eye(t.dim_out), tol) is None


def is_pure(t: CpMap) -> bool:
    """True when the process operator has rank one (single-operator form)."""
    return choi_rank(to_choi(t)) == 1
