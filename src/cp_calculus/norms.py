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
    _dims,
    _frozen,
    _trusted,
    _trusted_choi,
    apply,
    from_choi,
    to_choi,
)
from .errors import DimensionLimit, InvariantViolation
from .numerics import (
    EPS_PSD, MAX_DIM, as_count, as_matrix, is_psd, op_norm, partial_trace, psd_sqrt
)
from .radon import _prepare

# a restart ends when a step gains <= ASCENT_TOL * value, or at ASCENT_MAX_ITER
ASCENT_MAX_ITER = 200
ASCENT_TOL = 1e-10
# entries one stacked x or y of the ascent may hold: restarts at d=16 run
# one per stack, and up to 16 at d=8 or 256 at d=4 share one
STACK_ENTRIES = 2 ** 16


def cb_norm_cp(t: CpMap) -> float:
    """Completely bounded norm of a CP map: op_norm of T(1)."""
    return float(op_norm(apply(t, np.eye(t.dim_in))))


def _ascend(k1, k2, dim, rngs, max_iter, tol, *, g):
    """Restarts of the alternating ascent, one per generator in ``rngs``,
    run as one stack; returns (best value, total iterations).

    ``k1`` and ``k2`` are the maps' (k, m, n) Kraus arrays, ``dim`` is n * r
    for an ancilla of dimension r, and ``g`` is their process operators'
    (C1 - C2) / m, (out, out) by (in, in).  No Kronecker factor is formed.  With
    Psi = psi.reshape(n, r), (K (x) 1_r) psi is (K Psi).reshape(-1), so
    x = sum_k (K_k (x) 1_r) psi psi* (K_k (x) 1_r)*, minus the same for the
    second map, is one GEMM per map on the stacked vectors.  y, the dual
    action of the same difference on x's sign operator S, is one GEMM of g
    with S regrouped from ((input, ancilla), (input, ancilla)) to
    ((input, input), (ancilla, ancilla)) indices.  Over the live restarts,
    x's half-step is a batched GEMM chain and eigh, y's a GEMM and
    ``_toward_top``; a restart leaves the stack the iteration its stopping
    test fires.  Stacked matmul, eigh, eigvalsh and solve make the same
    BLAS and LAPACK call on each slice, in the same memory layout, as a
    single restart does, so each restart's value and step count are its own.
    """
    m, n = k1.shape[1:]
    r = dim // n
    draws = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for rng in rngs]
    psi = np.array([v / np.linalg.norm(v) for v in draws])
    values = np.zeros(len(rngs))
    steps = np.zeros(len(rngs), dtype=int)
    live = np.arange(len(rngs))
    prev = np.full(len(rngs), -np.inf)
    for step in range(1, max_iter + 1):
        big_psi = psi.reshape(-1, n, r)
        a1 = (k1.reshape(-1, n) @ big_psi).reshape(len(live), len(k1), m * r)
        a2 = (k2.reshape(-1, n) @ big_psi).reshape(len(live), len(k2), m * r)
        x = a1.swapaxes(-1, -2) @ a1.conj() - a2.swapaxes(-1, -2) @ a2.conj()
        # sum |w| and the sign operator ignore the phases and basis eigh picks
        w, u = np.linalg.eigh(x)
        value = np.abs(w).sum(axis=1)
        values[live] = value
        steps[live] = step
        done = value - prev <= tol * value
        if done.any():
            live, psi, w, u, value = (a[~done] for a in (live, psi, w, u, value))
            if not len(live):
                break
        prev = value
        signs = np.where(w >= 0.0, 1.0, -1.0)[:, None, :]
        sign_op = (u * signs) @ u.conj().swapaxes(-1, -2)
        blocks = sign_op.reshape(-1, m, r, m, r).transpose(0, 1, 3, 2, 4)
        blocks = blocks.reshape(-1, m * m, r * r)
        y = (g @ blocks).reshape(-1, n, n, r, r).transpose(0, 1, 3, 2, 4).reshape(-1, dim, dim)
        psi = _toward_top(y, psi)
    return float(values.max()), int(steps.sum())


def _toward_top(y, psi):
    """One inverse-iteration step of each psi on its y, shifted 1e-14 *
    max|eigenvalue| above y's top one: psi's projection onto a tied top
    eigenspace in any basis, psi where y = 0, and never a lower <psi|y|psi>."""
    ev = np.linalg.eigvalsh(y)
    top = np.abs(ev).max(axis=1, keepdims=True)
    scale = np.where(top > 0.0, top, 1.0)
    a = (y / scale[:, :, None]).reshape(len(y), -1)
    a[:, :: len(y[0]) + 1] -= ev[:, -1:] / scale + 1e-14  # the diagonal
    v = np.linalg.solve(a.reshape(y.shape), psi[..., None])[..., 0]
    return np.where(top > 0.0, v / np.linalg.norm(v, axis=1, keepdims=True), psi)


def _diamond_search(t1, t2, seed, restarts, ancilla_dim, max_iter, tol):
    """(best value, summed steps, c1, c2), c_i the process operator of t_i."""
    _check_same_dims(t1, t2)
    restarts = as_count(restarts, "restarts")
    r = as_count(t1.dim_out if ancilla_dim is None else ancilla_dim, "ancilla dimension")
    m, n = t1.dim_in, t1.dim_out
    side = max(m, n) * r
    if side > MAX_DIM:
        raise DimensionLimit(f"ascent dimension {side} exceeds {MAX_DIM}")
    c1, c2 = to_choi(t1), to_choi(t2)
    diff = (c1.matrix - c2.matrix).reshape(n, m, n, m)
    g = diff.transpose(0, 2, 1, 3).reshape(n * n, m * m) / m
    k1, k2 = t1.kraus_array, t2.kraus_array
    size = max(1, STACK_ENTRIES // side**2)
    # each stack's generators are seeded as it starts, so one stack's are held at a time
    ranges = (range(i, min(i + size, restarts)) for i in range(0, restarts, size))
    stacks = ([np.random.default_rng([seed, i]) for i in s] for s in ranges)
    results = [_ascend(k1, k2, n * r, s, max_iter, tol, g=g) for s in stacks]
    return max(v for v, _ in results), sum(k for _, k in results), c1, c2


def diamond_lower(
    t1: CpMap,
    t2: CpMap,
    seed: int = 0,
    restarts: int = 32,
    *,
    ancilla_dim: int | None = None,
    max_iter: int = ASCENT_MAX_ITER,
    tol: float = ASCENT_TOL,
    workers: int = 1,
) -> float:
    """Lower estimate of the distinguishability norm of t1 - t2.

    Alternating ascent over unit vectors psi on (output space) x (ancilla
    of the same dimension): maximize the trace norm of the stabilized
    difference of the dual actions on |psi><psi|.  Each restart ascends
    monotonically; restarts use independent streams derived from (seed,
    restart index) and are combined by max, so the result is deterministic
    for fixed arguments.  With an ancilla of dimension r, never formed as
    a Kronecker factor, a step costs a few GEMMs on arrays the size of the
    maps' process operators, an eigendecomposition of size dim_in * r, and
    the eigenvalues and one solve of size dim_out * r.  The restarts run in
    stacks of up to STACK_ENTRIES entries per x and y (one restart where
    its own x or y is larger), each reaching the value and step count it
    reaches alone; ``workers`` is accepted for compatibility and ignored.
    A restart count or ancilla dimension that is not an integer, or is a
    bool, raises ValueError, and max(dim_in, dim_out) * r above MAX_DIM
    raises DimensionLimit before anything is allocated.
    """
    return _diamond_search(t1, t2, seed, restarts, ancilla_dim, max_iter, tol)[0]


def bound_rn(t1: CpMap, t2: CpMap) -> float:
    """Upper bound on the CB norm of t1 - t2 from derivative densities.

    Both maps are dominated by their sum T, so their densities F_i on T's
    canonical environment sum to 1; ||t1 - t2||_cb <= ||T(1)||*||D|| for
    D = F1 - F2, which collapses to ||D|| whenever the dominator is a channel.
    """
    _check_same_dims(t1, t2)
    return _bound_rn(to_choi(t1), to_choi(t2))[0]


def _bound_rn(c1: ChoiOperator, c2: ChoiOperator) -> tuple[float, np.ndarray]:
    """(bound_rn, D) from the maps' process operators: T's family is from_choi of
    their exactly symmetric sum, and D = F1 - F2 = W+ (C1 - C2) W+* / dim_in, one
    compression, unwindowed as t_i <= T by construction; T(1) = tr_in(C1 + C2) / dim_in."""
    m, n = c1.dim_in, c1.dim_out
    total = _trusted_choi(m, n, c1.matrix + c2.matrix)
    wp = _prepare(from_choi(total))[1]
    d = wp @ (c1.matrix - c2.matrix) @ wp.conj().T / m
    unit = partial_trace(total.matrix, "second", n, m) / m
    return float(op_norm(unit) * op_norm(d)), d


@dataclass(frozen=True)
class CommonDilationPair:
    """Dilations of two maps on one shared environment.

    Both operators act from the output space to (input) x (environment)
    with env_dim = dim_in * dim_out, and each map is recovered as
    T_i(A) = V_i*(A (x) 1)V_i.  Every dimension must be at least 1.
    """

    dim_in: int
    dim_out: int
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        m, n = _dims(self.dim_in, self.dim_out)
        for name, v in (("v1", self.v1), ("v2", self.v2)):
            object.__setattr__(self, name, _frozen(as_matrix(v, (m * m * n, n), name).copy()))

    @property
    def env_dim(self) -> int:
        return self.dim_in * self.dim_out


def common_dilation(t1: CpMap, t2: CpMap) -> CommonDilationPair:
    """Dilate two maps through one reference-channel environment.

    V_i = (1 (x) sqrt(F_i)) V_ref, with F_i the process operator of t_i
    and V_ref the canonical dilation of the reference channel a ->
    tau(a)1.  V_ref's entries are 0 and 1/sqrt(dim_in), one per column
    and input index, so V_i is sqrt(F_i) / sqrt(dim_in) with its columns
    regrouped by input index; neither the identity factor nor V_ref is
    formed.  The pair satisfies ||v1 - v2|| <= dim_in * sqrt(cb norm of
    the difference); ``norm_report`` checks the inequality against the
    derivative-density upper bound, which keeps it sound.  The constant
    is the input dimension; dilating the dual representation instead
    would carry the output dimension, and the two conventions can differ.
    """
    _check_same_dims(t1, t2)
    return _common_dilation(to_choi(t1), to_choi(t2))


def _common_dilation(c1: ChoiOperator, c2: ChoiOperator) -> CommonDilationPair:
    """common_dilation on the maps' process operators: row (a, (mu, i)) of
    V_i, column nu, is sqrt(F_i)[(mu, i), (nu, a)] / sqrt(dim_in)."""
    m, n = c1.dim_in, c1.dim_out
    roots = np.stack([psd_sqrt(c1.matrix), psd_sqrt(c2.matrix)]) * (1.0 / np.sqrt(m))
    v = _frozen(roots.reshape(2, m * n, n, m).transpose(0, 3, 1, 2).reshape(2, -1, n))
    return _trusted(CommonDilationPair, dim_in=m, dim_out=n, v1=v[0], v2=v[1])


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
    t1: CpMap, t2: CpMap, seed: int = 0, restarts: int = 32, *, workers: int = 1
) -> NormReport:
    """Run the full bracket: lower estimate plus both upper bounds.

    t1's and t2's process operators, formed once, serve the search and both
    bounds.  cb_exact is ||(t1 - t2)(1)||, the CB norm of a CP difference, when
    one map dominates the other (``dominates`` at its default tol, read off
    upper_rn's D: D or -D is PSD within EPS_PSD / (2 + EPS_PSD)), else None.
    ``workers`` is ignored, ``restarts`` is checked as diamond_lower checks it,
    and a lower estimate above either upper bound, or a common-dilation gap
    ||v1 - v2|| above dim_in * sqrt(upper_rn), raises InvariantViolation.
    """
    lower, iterations, c1, c2 = _diamond_search(
        t1, t2, seed, restarts, None, ASCENT_MAX_ITER, ASCENT_TOL
    )
    upper_rn, d = _bound_rn(c1, c2)
    upper_rn = _upper_bound("upper_rn", upper_rn, lower)
    pair = _common_dilation(c1, c2)
    gap = op_norm(pair.v1 - pair.v2)
    limit = pair.dim_in * np.sqrt(upper_rn) * (1.0 + 1e-9) + 1e-12
    if gap > limit:
        raise InvariantViolation(
            f"dilation gap {gap!r} exceeds dim_in * sqrt(upper_rn) = {limit!r}"
        )
    upper_dilation = _upper_bound("upper_dilation", _bound_dilation(pair, gap), lower)
    cb_exact = None
    tau = EPS_PSD / (2.0 + EPS_PSD)  # D = 2 F1 - 1: t2 <= (1 + e) t1 iff D >= -e / (2 + e)
    if is_psd(d, tau) or is_psd(-d, tau):
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
