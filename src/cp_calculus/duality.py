"""Process operators as derivative densities of a reference channel.

Every CP map on an m-dimensional input algebra is dominated by a multiple
of the channel sending a to tau(a)1, tau the normalized trace.  Its
derivative density with respect to that reference is, after the canonical
environment identification, the amplified process operator F of the map.
That one fact turns domination calculus into matrix calculus: the action,
the quantum-operation criterion, and composition can all be read off F
without ever touching Kraus families.  Replacing tau by a faithful
diagonal state generalizes the construction; the uniform state recovers F
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cpmap import (
    ChoiOperator,
    CpMap,
    _columns,
    _dims,
    _trusted_choi,
    _trusted_map,
    apply,
    to_choi,
)
from .errors import (
    DimMismatch,
    DimensionLimit,
    InvariantViolation,
    NotPsd,
    ShapeMismatch,
)
from .numerics import (
    EPS_PSD,
    MAX_DIM,
    as_matrix,
    hermitize,
    norm_excess,
    op_norm,
    partial_trace,
    psd_leq,
)
from .radon import _density


@dataclass(frozen=True)
class ReferenceChannel(CpMap):
    """The channel a -> tau(a)1 with its flat rank-one Kraus family."""

    @property
    def m(self) -> int:
        return self.dim_in

    @property
    def n(self) -> int:
        return self.dim_out


def _trace_channel(cls, m: int, n: int, scaled_cols) -> CpMap:
    """Channel with Kraus operators |c_i><f_mu|, input index i fastest.

    ``scaled_cols()`` gives the m x m matrix whose column i is c_i; it runs
    only after the dimension guards, so no out-of-range size is allocated.
    """
    m, n = _dims(m, n)
    if m * n > MAX_DIM:
        raise DimensionLimit(f"environment dimension {m * n} exceeds {MAX_DIM}")
    cols = scaled_cols()
    ops = np.zeros((n, m, m, n), dtype=complex)
    for mu in range(n):
        ops[mu, :, :, mu] = cols.T
    return _trusted_map(m, n, ops.reshape(n * m, m, n), cls)


def reference_channel(m: int, n: int) -> ReferenceChannel:
    """Build the channel sending a to tau(a)1_n, tau = normalized trace.

    The m * n Kraus operators |e_i><f_mu| / sqrt(m) are ordered with the
    input index fastest, so the environment index (mu, i) -> mu * m + i
    matches the row convention of the process operator.
    """
    return _trace_channel(
        ReferenceChannel, m, n, lambda: np.eye(m) * (1.0 / np.sqrt(m))
    )


def jam_forward(t: CpMap) -> ChoiOperator:
    """Process operator of ``t``, amplified by the input dimension.

    Numerically identical to ``to_choi``.  It is the duality this module
    stands for: ``t`` is dominated by c times the reference channel for
    c = dim_in**2 * max(1, ||T(1)||), and the derivative density on that
    channel's environment, rotated back to the natural Kraus index, is the
    returned operator divided by c.  The identity holds by construction;
    the tests check it against ``rn_derivative``.
    """
    return to_choi(t)


def jam_apply(f: ChoiOperator, a) -> np.ndarray:
    """Recover the action on ``a`` from a process operator.

    Computes (1/m) tr_in[(1 (x) a^T) F] with the transpose taken in the
    standard basis, as one tensordot of a with F's input indices, so no
    identity factor is formed; for F = jam_forward(t) this equals apply(t, a).
    """
    m, n = f.dim_in, f.dim_out
    a = as_matrix(a, (m, m), "input")
    return np.tensordot(f.matrix.reshape(n, m, n, m), a, axes=([1, 3], [0, 1])) / m


def jam_is_operation(f: ChoiOperator, tol: float = EPS_PSD) -> bool:
    """Quantum-operation criterion tr_in F <= m 1 on the process operator."""
    m, n = f.dim_in, f.dim_out
    marginal = partial_trace(f.matrix, "second", n, m)
    return psd_leq(marginal, m * np.eye(n), tol)


def jam_compose(f2: ChoiOperator, f1: ChoiOperator) -> ChoiOperator:
    """Compose process operators without leaving process-operator form.

    For F2 of an n -> d map and F1 of an m -> n map, the composite entries
    contract the shared factor against the maximally entangled vector:

        <x,i|F21|y,j> = (1/n) sum_{mu,nu} <x,mu|F2|y,nu> <mu,i|F1|nu,j>

    which equals jam_forward of the composed maps and is PSD by construction.
    """
    if f1.dim_out != f2.dim_in:
        raise DimMismatch(
            f"inner dimensions disagree: {f2.dim_in} and {f1.dim_out}"
        )
    m, n = f1.dim_in, f1.dim_out
    d = f2.dim_out
    f2r = f2.matrix.reshape(d, n, d, n)
    f1r = f1.matrix.reshape(n, m, n, m)
    out = np.tensordot(f2r, f1r, axes=([1, 3], [0, 2])).transpose(0, 2, 1, 3) / n
    return _trusted_choi(m, d, hermitize(out.reshape(d * m, d * m)))


@dataclass(frozen=True)
class FaithfulState:
    """Faithful diagonal state w(a) = sum_i p_i <b_i|a b_i>.

    ``basis`` holds the vectors b_i as columns; the default is the
    standard basis.  Faithfulness means every p_i is strictly positive.
    """

    p: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p)):
            raise ShapeMismatch("p must be a finite probability vector")
        if float(np.min(p)) <= 0.0:
            k = int(np.argmin(p))
            raise NotPsd(f"state is not faithful: p[{k}] = {p[k]:.3e}")
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        m = p.size
        b = self.basis
        b = np.eye(m, dtype=complex) if b is None else as_matrix(b, (m, m), "basis")
        if norm_excess(b @ b.conj().T - np.eye(m), 1e-8) is not None:
            raise ValueError("basis columns are not orthonormal")
        p = p.copy()
        p.setflags(write=False)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.p.size

    def density(self) -> np.ndarray:
        """Density matrix sum_i p_i |b_i><b_i| of the state."""
        return (self.basis * self.p) @ self.basis.conj().T


def faithful_channel(w: FaithfulState, n: int) -> CpMap:
    """Channel a -> w(a)1_n induced by a faithful state on the input.

    Kraus operators sqrt(p_i)|b_i><f_mu| in the same input-fastest order
    as the reference channel; the uniform state in the standard basis
    reproduces reference_channel(w.dim, n) exactly.
    """
    return _trace_channel(CpMap, w.dim, n, lambda: w.basis * np.sqrt(w.p))


class FaithfulDerivative(NamedTuple):
    """Derivative density of a map against a faithful reference channel."""

    matrix: np.ndarray
    constant: float


def faithful_rn(t: CpMap, w: FaithfulState) -> FaithfulDerivative:
    """Derivative density of ``t`` on its faithful reference environment.

    The density is pinv(W) C pinv(W)*: radon's compression of t's
    unnormalized process matrix C by the faithful channel's stack W, which
    is n copies of one m x m block, inverted once.  For an exactly
    orthonormal basis this equals the entrywise formula
    <f_mu|T(|b_i><b_j|)f_nu> / sqrt(p_i p_j) at environment index
    (mu, i) -> mu * m + i; FaithfulState accepts a basis orthonormal to
    1e-8, and for such a basis the two differ at that order.
    ``constant`` is its top eigenvalue (its norm: it is PSD), the least c
    with t dominated by c times the faithful channel.  The uniform state in
    the standard basis returns the process operator.
    Raises InvariantViolation if c fails to dominate or exceeds
    p_min**-2 * ||T(1)||.
    """
    m, n = t.dim_in, t.dim_out
    if w.dim != m:
        raise DimMismatch(f"state dim {w.dim} does not match input dim {m}")
    phi = faithful_channel(w, n)
    stack = _columns(phi.kraus_array)
    # W holds n copies of one m x m diagonal block: pinv(W) inverts it once
    wp = np.eye(n)[:, None, :, None] * np.linalg.inv(stack[:m, :m])[:, None, :]
    ct = to_choi(t)
    f = _density(ct, stack, wp.reshape(stack.shape))
    c = max(0.0, float(np.linalg.eigvalsh(f)[-1]))
    if not psd_leq(ct.matrix, c * to_choi(phi).matrix):
        raise InvariantViolation(
            f"map is not dominated by {c!r} times the faithful channel"
        )
    dinv = 1.0 / float(np.min(w.p))
    limit = dinv * dinv * op_norm(apply(t, np.eye(m))) * (1.0 + 1e-9)
    if c > limit:
        raise InvariantViolation(
            f"constant {c!r} exceeds p_min**-2 * ||T(1)|| = {limit!r}"
        )
    return FaithfulDerivative(matrix=f, constant=c)
