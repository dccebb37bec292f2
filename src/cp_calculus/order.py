"""Order structure of CP maps: rigidity, domination constants, dilations.

Channels are extreme in the complete-positivity order: two distinct
channels never dominate one another, so the only way to compare them is by
a constant, s <= c * t.  This module computes the least such constant,
builds mixtures and paddings, and carries an increasing chain of
operations on one dilation by the successive differences of its densities
on the top's environment, the differences that decide its monotonicity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cpmap import (
    CpMap,
    _check_same_dims,
    _dims,
    _frozen,
    _trusted,
    _trusted_map,
    add,
    apply,
    canonicalize,
    dilation_matrix,
    is_channel,
    is_quantum_operation,
    scale,
    to_choi,
)
from .errors import (
    CpError,
    DimensionLimit,
    InvariantViolation,
    NotAChannel,
    NotAnOperation,
    NotDominated,
    NotMonotone,
)
from .numerics import (
    EPS_PSD,
    MAX_DIM,
    as_matrix,
    herm_eig,
    hermitize,
    norm_excess,
    op_norm,
    psd_rank,
    psd_sqrt,
    recon_tol,
)
from .radon import PovmDecomposition, _check_window, _density, _spectrum, _top


class DifferenceVerdict(enum.Enum):
    """Outcome of comparing two equally normalized maps for domination."""

    EQUAL = "equal"
    NOT_CP = "not_cp"


def channel_difference_is_cp(
    s: CpMap, t: CpMap, tol: float = EPS_PSD
) -> DifferenceVerdict:
    """Rigidity of channels: T - S is CP only when S = T.

    Accepts channel pairs, or more generally maps with apply(s, 1) equal to
    apply(t, 1) within tolerance (same normalization); anything else raises
    NotAChannel.  Returns EQUAL when the maps agree on all inputs, NOT_CP
    otherwise; ``tol`` governs only the normalization test.  A NOT_CP pair
    separated by more than 1e-6 in process-operator norm is cross-checked
    with the library's one criterion, ``dominates(s, t)`` at EPS_PSD: an
    ordered pair raises NotAChannel when its normalizations differ by more
    than EPS_PSD (which ``tol`` admitted), else InvariantViolation, also
    under ``python -O``; closer ties sit inside the order check's tolerance
    window and are reported without the cross-check.
    """
    _check_same_dims(s, t)
    norm_gap = op_norm(apply(s, np.eye(s.dim_in)) - apply(t, np.eye(t.dim_in)))
    unequal = NotAChannel(f"normalizations differ by {norm_gap:.3e}; rigidity needs equality")
    if not (is_channel(s, tol) and is_channel(t, tol)) and norm_gap > tol:
        raise unequal
    cs, ct = to_choi(s), to_choi(t)
    gap = norm_excess(cs.matrix - ct.matrix, recon_tol, ct.matrix)
    if gap is None:
        return DifferenceVerdict.EQUAL
    if gap > 1e-6 and _top(s, t, cs, ct) <= 1.0 + EPS_PSD:
        if norm_gap > EPS_PSD:
            raise unequal
        raise InvariantViolation("rigidity violated for a separated pair")
    return DifferenceVerdict.NOT_CP


@dataclass(frozen=True)
class DominationConstant:
    """Least c with s <= c * t; infinite when no finite constant works."""

    value: float
    attained: bool


def c_min(s: CpMap, t: CpMap) -> DominationConstant:
    """Least constant c such that c * t dominates s.

    The largest eigenvalue of s's density on t's canonical environment,
    the top of the spectrum rn_derivative's window and ``dominates`` read
    (from the Gram of s's stack factor when that is thinner).  It is the
    sentinel (inf, attained=False) exactly when rn_derivative reports that
    s leaks outside t's support, a leak radon's stack test certifies with
    no process operator and no SVD.  It reuses t's canonical family, its
    stack W and W's closed-form inverse, computed once per map object.
    """
    top = _top(s, t)
    return DominationConstant(value=max(0.0, top), attained=top < np.inf)


def mix_channels(s1: CpMap, s2: CpMap, lam: float) -> CpMap:
    """Convex mixture lam * s1 + (1 - lam) * s2 of two channels."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    _check_same_dims(s1, s2)
    if not (is_channel(s1) and is_channel(s2)):
        raise NotAChannel("mixture inputs must be channels")
    return add(scale(s1, lam), scale(s2, 1.0 - lam))


def pad_to_channel(t: CpMap) -> CpMap:
    """Complete an operation to a channel by appending one Kraus operator.

    The appended operator M satisfies M*M = 1 - T(1); for
    dim_in >= dim_out it is the unique PSD root composed with the standard
    embedding, otherwise a rank factorization is used, which exists only
    while rank(1 - T(1)) <= dim_in.  The result is returned canonicalized.
    """
    if not is_quantum_operation(t):
        raise NotAnOperation("padding needs T(1) <= 1")
    m, n = t.dim_in, t.dim_out
    defect = hermitize(np.eye(n) - apply(t, np.eye(m)))
    if m >= n:
        pad = np.eye(m, n) @ psd_sqrt(defect)
    else:
        e = herm_eig(defect)
        rank = psd_rank(e.values)
        if rank > m:
            raise CpError(
                f"defect rank {rank} exceeds dim_in {m}; "
                "no single appended operator can complete this map"
            )
        pad = np.eye(m, rank) @ (e.vectors[:, :rank] * np.sqrt(e.values[:rank])).conj().T
    return canonicalize(add(t, _trusted_map(m, n, pad[None])))


class NaimarkDilation(NamedTuple):
    """Isometry and projective measurement dilating a POVM."""

    isometry: np.ndarray
    pvm: tuple[np.ndarray, ...]


def naimark_dilate(povm: PovmDecomposition) -> NaimarkDilation:
    """Dilate a POVM to a projective measurement on dim * k dimensions.

    The isometry sends xi to sum_i sqrt(F_i) xi (x) delta_i; compressing
    the diagonal projections 1 (x) |delta_i><delta_i| reproduces the POVM.
    Both are read-only; dim * k above MAX_DIM raises DimensionLimit first.
    """
    k = len(povm.elements)
    return _naimark(povm, (np.arange(k) == i for i in range(k)))


def _naimark(povm: PovmDecomposition, masks) -> NaimarkDilation:
    """naimark_dilate with one projection 1 (x) diag(row) per 0/1 row of
    ``masks``, rows read after the guard (lower-triangular: partial sums)."""
    d, k = povm.dim, len(povm.elements)
    if d * k > MAX_DIM:
        raise DimensionLimit(
            f"tensor product of shape {d * k}x{d * k} exceeds the cap {MAX_DIM}"
        )
    isometry = np.stack([psd_sqrt(f) for f in povm.elements], axis=1).reshape(d * k, d)
    pvm = tuple(_frozen(np.diag(np.tile(row, d))) for row in masks)
    return NaimarkDilation(isometry=_frozen(isometry), pvm=pvm)


@dataclass(frozen=True)
class PvmChain:
    """One dilation carrying an increasing projection per chain element.

    Each input map satisfies T_k(A) = isometry*(A (x) projections[k])isometry,
    with projections orthogonal, increasing, and contained in the identity.
    Every dimension must be at least 1.
    """

    dim_in: int
    dim_out: int
    env_dim: int
    isometry: np.ndarray
    projections: tuple[np.ndarray, ...]

    def __post_init__(self):
        m, n, e = _dims(self.dim_in, self.dim_out, self.env_dim)
        iso = as_matrix(self.isometry, (m * e, n), "isometry")
        projs = tuple(
            _frozen(as_matrix(p, (e, e), f"projection {idx}").copy())
            for idx, p in enumerate(self.projections)
        )
        object.__setattr__(self, "isometry", _frozen(iso.copy()))
        object.__setattr__(self, "projections", projs)


def order_chain_dilation(chain) -> PvmChain:
    """Represent an increasing chain of operations on one dilation.

    The last element, padded to a channel when necessary, is the top.  As
    S -> D_top(S) is an order isomorphism onto [0, 1], the elements'
    densities on its canonical environment, ending in its own, 1, decide
    monotonicity: a pair whose lower element leaks out of the top's support
    or whose difference leaves [0, 1] raises NotMonotone, the first density
    or the padding part NotDominated.  The differences, a POVM, are dilated
    projectively; the partial sums for the input elements are the projections.
    The contract is T_k(A) = V*(A (x) P_k)V with V = (1 (x) N) V_top: the
    Naimark isometry N multiplies each dim_in row block of the top element's
    canonical dilation V_top, so no identity factor is formed.  V is unique
    only up to rotations within degenerate eigenspaces of the top element's
    process operator.
    """
    chain = list(chain)
    if not chain:
        raise ValueError("chain must contain at least one map")
    for k, t in enumerate(chain):
        if not is_quantum_operation(t):
            raise NotAnOperation(f"chain element {k} has T(1) > 1")
    for k in range(1, len(chain)):
        _check_same_dims(chain[k - 1], chain[k])
    padded = not is_channel(chain[-1])
    top = pad_to_channel(chain[-1]) if padded else canonicalize(chain[-1])
    f = _density(chain[-1], top)[0] if padded else np.eye(len(top.kraus))  # the top's is 1
    parts = [f, np.eye(len(top.kraus)) - f] if padded else [f]
    try:  # downwards, so a leak is met below an element inside the top's support
        for k in range(len(chain) - 1, 0, -1):
            f = _density(chain[k - 1], top)[0]
            parts[:1] = [f, parts[0] - f]  # parts[0] is the lowest density yet
            _check_window(_spectrum(parts[1]), NotDominated)
    except NotDominated as exc:
        raise NotMonotone(f"element {k - 1} is not dominated by element {k}") from exc
    for f in parts[:: len(chain)]:  # the first density, and the padding part if any
        _check_window(_spectrum(f), NotDominated)
    # the differences telescope to 1, so they resolve the identity by construction
    povm = _trusted(PovmDecomposition, elements=tuple(_frozen(f) for f in parts))
    nai = _naimark(povm, np.tri(len(chain), len(parts)))
    v_top = dilation_matrix(top).reshape(top.dim_in, -1, top.dim_out)
    isometry = (nai.isometry @ v_top).reshape(-1, top.dim_out)

    # the chain's own arrays are fresh (isometry) or frozen already (pvm)
    return _trusted(
        PvmChain,
        dim_in=chain[0].dim_in,
        dim_out=chain[0].dim_out,
        env_dim=povm.dim * len(parts),
        isometry=_frozen(isometry),
        projections=nai.pvm,
    )
