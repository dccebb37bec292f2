"""CB-norm identities and distinguishability bounds for CP map pairs.

For a single CP map the completely bounded norm collapses to the operator
norm of the image of the identity.  Differences of CP maps have no such
closed form, so this module brackets them: a stabilized variational lower
estimate (alternating ascent over input vectors on the output space with
an ancilla), an upper bound from derivative densities on the canonical
common dominator, and an upper bound from a common dilation pair.  The
estimator is reported as a lower bound only and never claimed exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpmap import (
    ChoiOperator,
    CpMap,
    _check_same_dims,
    _frozen,
    add,
    apply,
    canonicalize,
    dilation_matrix,
    to_choi,
)
from .duality import reference_channel
from .errors import InvariantViolation, ShapeMismatch
from .numerics import as_matrix, herm_eig, op_norm, psd_leq, psd_sqrt
from .radon import _derivative, _prepare


def cb_norm_cp(t: CpMap) -> float:
    """Completely bounded norm of a CP map: op_norm of T(1)."""
    return float(op_norm(apply(t, np.eye(t.dim_in))))


def _process_difference(k1, k2):
    """G[(i,j),(p,q)] = sum_k conj(K1[k,p,i]) K1[k,q,j], minus the same for
    K2, as an (n^2, m^2) array for (k, m, n) Kraus arrays.  Each map's sum
    is formed before the subtraction, so identical maps give exactly 0."""
    m, n = k1.shape[1:]
    g1 = np.tensordot(k1.conj(), k1, axes=(0, 0)).transpose(1, 3, 0, 2)
    g2 = np.tensordot(k2.conj(), k2, axes=(0, 0)).transpose(1, 3, 0, 2)
    return (g1 - g2).reshape(n * n, m * m)


def _ascend(k1, k2, dim, rng, max_iter, tol, *, g):
    """One restart of the alternating ascent; returns (value, iterations).

    ``k1`` and ``k2`` are the maps' (k, m, n) Kraus arrays, ``dim`` is n * r
    for an ancilla of dimension r, and ``g`` is their
    ``_process_difference``.  No Kronecker factor is formed.  With
    Psi = psi.reshape(n, r), (K (x) 1_r) psi is (K Psi).reshape(-1), so
    x = sum_k (K_k (x) 1_r) psi psi* (K_k (x) 1_r)*, minus the same for the
    second map, is one GEMM per map on the stacked vectors.  y, the dual
    action of the same difference on x's sign operator S, is one GEMM of g
    with S regrouped from ((input, ancilla), (input, ancilla)) to
    ((input, input), (ancilla, ancilla)) indices.
    """
    m, n = k1.shape[1:]
    r = dim // n
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    prev = -np.inf
    value = 0.0
    steps = 0
    for _ in range(max_iter):
        big_psi = psi.reshape(n, r)
        a1 = (k1.reshape(-1, n) @ big_psi).reshape(len(k1), m * r)
        a2 = (k2.reshape(-1, n) @ big_psi).reshape(len(k2), m * r)
        x = a1.T @ a1.conj() - a2.T @ a2.conj()
        # sum |w|, the sign operator and psi psi* do not depend on the
        # eigenvectors' phases or on the basis eigh picks inside an
        # eigenspace, so eigh serves without herm_eig's phase fix and sort;
        # only a tied top eigenvalue of y leaves psi itself undetermined
        w, u = np.linalg.eigh(x)
        value = float(np.sum(np.abs(w)))
        steps += 1
        if value - prev <= tol * max(1.0, value):
            break
        prev = value
        sign_op = (u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T
        blocks = sign_op.reshape(m, r, m, r).transpose(0, 2, 1, 3).reshape(m * m, r * r)
        y = (g @ blocks).reshape(n, n, r, r).transpose(0, 2, 1, 3).reshape(dim, dim)
        w, u = np.linalg.eigh(y)
        if len(w) == 1 or w[-1] != w[-2]:
            psi = u[:, -1]
        else:
            psi = herm_eig(y).vectors[:, 0]
    return value, steps


def _diamond_search(t1, t2, seed, restarts, ancilla_dim, max_iter, tol):
    _check_same_dims(t1, t2)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    r = t1.dim_out if ancilla_dim is None else int(ancilla_dim)
    if r < 1:
        raise ValueError("ancilla dimension must be at least 1")
    dim = t1.dim_out * r
    k1, k2 = t1.kraus_array, t2.kraus_array
    g = _process_difference(k1, k2)
    results = [
        _ascend(k1, k2, dim, np.random.default_rng([seed, ridx]), max_iter, tol, g=g)
        for ridx in range(restarts)
    ]
    value = max(res[0] for res in results)
    iterations = sum(res[1] for res in results)
    return value, iterations


def diamond_lower(
    t1: CpMap,
    t2: CpMap,
    seed: int = 0,
    restarts: int = 32,
    *,
    ancilla_dim: int | None = None,
    max_iter: int = 200,
    tol: float = 1e-10,
    workers: int = 1,
) -> float:
    """Lower estimate of the distinguishability norm of t1 - t2.

    Alternating ascent over unit vectors psi on (output space) x (ancilla
    of the same dimension): maximize the trace norm of the stabilized
    difference of the dual actions on |psi><psi|.  Each restart ascends
    monotonically; restarts use independent streams derived from (seed,
    restart index) and are combined by max, so the result is deterministic
    for fixed arguments.  A step costs a few GEMMs on arrays the size of
    the maps' process operators and two dense eigendecompositions, of size
    dim_in * r and dim_out * r for an ancilla of dimension r; the ancilla
    is never formed as a Kronecker factor.  Restarts run one after another;
    ``workers`` is accepted for compatibility and ignored.
    """
    value, _ = _diamond_search(t1, t2, seed, restarts, ancilla_dim, max_iter, tol)
    return value


def bound_rn(t1: CpMap, t2: CpMap) -> float:
    """Upper bound on the CB norm of t1 - t2 from derivative densities.

    Both maps are dominated by their sum T, so each has a density F_i on
    T's canonical environment; then ||t1 - t2||_cb <= ||T(1)||*||F1 - F2||,
    which collapses to ||F1 - F2|| whenever the dominator is a channel.
    """
    _check_same_dims(t1, t2)
    return _bound_rn(add(t1, t2), to_choi(t1), to_choi(t2))


def _bound_rn(total: CpMap, c1: ChoiOperator, c2: ChoiOperator) -> float:
    """bound_rn on the maps' process operators and their sum ``total``."""
    dom = _prepare(canonicalize(total))
    f1 = _derivative(c1, dom).matrix
    f2 = _derivative(c2, dom).matrix
    return float(op_norm(apply(total, np.eye(total.dim_in))) * op_norm(f1 - f2))


@dataclass(frozen=True)
class CommonDilationPair:
    """Dilations of two maps on one shared environment.

    Both operators act from the output space to (input) x (environment)
    with env_dim = dim_in * dim_out, and each map is recovered as
    T_i(A) = V_i*(A (x) 1)V_i.
    """

    dim_in: int
    dim_out: int
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        shape = (self.dim_in * self.env_dim, self.dim_out)
        for name, v in (("v1", self.v1), ("v2", self.v2)):
            v = as_matrix(v)
            if v.shape != shape:
                raise ShapeMismatch(f"{name} has shape {v.shape}, expected {shape}")
            object.__setattr__(self, name, _frozen(v.copy()))

    @property
    def env_dim(self) -> int:
        return self.dim_in * self.dim_out


def common_dilation(t1: CpMap, t2: CpMap) -> CommonDilationPair:
    """Dilate two maps through one reference-channel environment.

    V_i = (1 (x) sqrt(F_i)) V_ref, with F_i the process operator of t_i
    and V_ref the canonical dilation of the reference channel.  The
    identity factor is never formed: V_ref is reshaped to its dim_in
    blocks of dim_in * dim_out rows, and sqrt(F_i) multiplies each.  The pair
    satisfies ||v1 - v2|| <= dim_in * sqrt(cb norm of the difference);
    ``norm_report`` checks the inequality against the derivative-density
    upper bound, which keeps it sound.  The constant is the input
    dimension; dilating the dual representation instead would carry the
    output dimension, and the two conventions can differ.
    """
    _check_same_dims(t1, t2)
    return _common_dilation(to_choi(t1), to_choi(t2))


def _common_dilation(c1: ChoiOperator, c2: ChoiOperator) -> CommonDilationPair:
    """common_dilation on the maps' process operators."""
    m, n = c1.dim_in, c1.dim_out
    v_ref = dilation_matrix(reference_channel(m, n)).reshape(m, m * n, n)
    v1 = (psd_sqrt(c1.matrix) @ v_ref).reshape(-1, n)
    v2 = (psd_sqrt(c2.matrix) @ v_ref).reshape(-1, n)
    return CommonDilationPair(dim_in=m, dim_out=n, v1=v1, v2=v2)


def bound_dilation_diff(p: CommonDilationPair) -> float:
    """Upper bound (||v1|| + ||v2||) * ||v1 - v2|| on the CB norm.

    For a channel pair both dilations are isometries and the bound reads
    2 * ||v1 - v2||.
    """
    return _bound_dilation(p, op_norm(p.v1 - p.v2))


def _bound_dilation(p: CommonDilationPair, gap: float) -> float:
    """bound_dilation_diff given the gap ||v1 - v2||."""
    return float((op_norm(p.v1) + op_norm(p.v2)) * gap)


@dataclass(frozen=True)
class NormReport:
    """Bracketing report for the distinguishability of two CP maps."""

    lower: float
    upper_rn: float
    upper_dilation: float
    cb_exact: float | None
    seed: int
    restarts: int
    iterations: int


def _upper_bound(name: str, upper: float, lower: float) -> float:
    """Return upper, raising InvariantViolation if the bracket is inverted."""
    if lower > upper * (1.0 + 1e-9) + 1e-12:
        raise InvariantViolation(f"lower estimate {lower!r} exceeds {name} {upper!r}")
    return upper


def norm_report(
    t1: CpMap,
    t2: CpMap,
    seed: int = 0,
    restarts: int = 32,
    *,
    workers: int = 1,
) -> NormReport:
    """Run the full bracket: lower estimate plus both upper bounds.

    t1's and t2's process operators, formed once, serve both bounds and
    the cb_exact test: when the difference of the maps is CP in either
    direction the CB norm has the closed form ||(t1 - t2)(1)||, reported
    as cb_exact (else None).  ``workers`` is accepted and ignored.  A
    lower estimate above either upper bound, or a common-dilation gap
    ||v1 - v2|| above dim_in * sqrt(upper_rn), raises InvariantViolation.
    """
    lower, iterations = _diamond_search(t1, t2, seed, restarts, None, 200, 1e-10)
    c1, c2 = to_choi(t1), to_choi(t2)
    upper_rn = _upper_bound("upper_rn", _bound_rn(add(t1, t2), c1, c2), lower)
    pair = _common_dilation(c1, c2)
    gap = op_norm(pair.v1 - pair.v2)
    limit = pair.dim_in * np.sqrt(upper_rn) * (1.0 + 1e-9) + 1e-12
    if gap > limit:
        raise InvariantViolation(
            f"dilation gap {gap!r} exceeds dim_in * sqrt(upper_rn) = {limit!r}"
        )
    upper_dilation = _upper_bound("upper_dilation", _bound_dilation(pair, gap), lower)
    cb_exact = None
    if psd_leq(c2.matrix, c1.matrix) or psd_leq(c1.matrix, c2.matrix):
        diff = apply(t1, np.eye(t1.dim_in)) - apply(t2, np.eye(t2.dim_in))
        cb_exact = float(op_norm(diff))
    return NormReport(
        lower=lower,
        upper_rn=upper_rn,
        upper_dilation=upper_dilation,
        cb_exact=cb_exact,
        seed=seed,
        restarts=restarts,
        iterations=iterations,
    )
