"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's conversion paths: the
positivity-order oracle samples the defining quadratic forms directly, and
the direct Heisenberg sum re-implements the Kraus action with a plain loop.
``reference_herm_eig`` is the per-column, tuple-sorted form of
``numerics.herm_eig`` (its ordering, ``reference_eig_order``, that of
``numerics.canonical_eig``), kept to check the vectorised one bit for bit;
``reference_psd_leq`` is the one-eigvalsh PSD rule, written apart from
``numerics.is_psd``, which must agree with it verdict for verdict.
``reference_c_min`` (inverse square root of t's process operator on its
support) and ``reference_faithful_rn`` (one ``apply`` per pair of basis
vectors) compute by a second route what the library reads off one
Radon-Nikodym compression.  ``reference_kraus_stack`` and
``reference_to_choi`` are the per-operator ``column_stack`` and the fully
validated ``ChoiOperator`` that the stacked Kraus array and the trusted
``to_choi`` replace; ``reference_canonical_kraus``, ``reference_density``
and the plain Kraus loops below build on them, to pin the stacked forms
bit for bit, a thin stack's SVD and X = W+ v included.  ``dense_canonical``
and ``dense_density`` keep the process-operator routes that thin stacks
skip: ``from_choi(to_choi(t))`` and the density of ``to_choi(s)`` with its
dense residual check.  ``reference_common_dilation`` and
``reference_jam_apply`` form the dense identity Kronecker products that the
library replaces by acting on one reshaped factor; ``env_sandwich``
computes V*(A (x) P)V the same way, for environments too large to form
A (x) P.  ``reference_ascend`` is one restart of the norms ascent on the
dense kron(V, 1_r) stacks, decomposed by ``herm_eig``, which the GEMM form
must follow step for step when x has full rank; ``ascent_input`` is the
ascent's other input, the ``to_choi`` difference regrouped.  ``golden_map``
loads a CLI golden input map, its Kraus operators optionally multiplied by
one global phase, which changes no map.

No ``assert`` here: pytest rewrites asserts only in test modules, so
``python -O`` would strip them from this file.
"""

from pathlib import Path

import numpy as np

from cp_calculus.cpmap import (
    ChoiOperator,
    CpMap,
    add,
    apply,
    dilation_matrix,
    from_choi,
    scale,
    to_choi,
)
from cp_calculus.duality import reference_channel
from cp_calculus.errors import NotDominated
from cp_calculus.serialize import parse_input
from cp_calculus.numerics import (
    EPS_PHASE,
    EPS_PSD,
    RANK_TOL,
    herm_eig,
    hermitize,
    norm_excess,
    op_norm,
    partial_trace,
    psd_sqrt,
    recon_tol,
)


GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"


def golden_map(name, phase=0.0):
    """The CP map in golden input ``name`` with every Kraus operator
    multiplied by exp(i phase)."""
    t = parse_input(GOLDEN / name)
    return CpMap(t.dim_in, t.dim_out, tuple(np.exp(1j * phase) * v for v in t.kraus))


def rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_unitary(rng, d):
    q, r = np.linalg.qr(rand_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_psd(rng, d, limit=None):
    m = rand_complex(rng, d, d)
    p = m @ m.conj().T
    if limit is not None:
        top = float(np.linalg.eigvalsh(p)[-1])
        if top > 0:
            p = p * (limit / top) * rng.uniform(0.2, 1.0)
    return p


def rand_contraction(rng, d):
    """Random PSD matrix with spectrum inside [0, 1]."""
    u = rand_unitary(rng, d)
    lam = rng.uniform(0.0, 1.0, size=d)
    return (u * lam) @ u.conj().T


def rand_cp_map(rng, dim_in, dim_out, n_kraus=None, norm=None):
    """Random CP map; norm rescales so that ||T(1)|| equals norm."""
    if n_kraus is None:
        n_kraus = int(rng.integers(1, dim_in * dim_out + 1))
    kraus = [rand_complex(rng, dim_in, dim_out) for _ in range(n_kraus)]
    t = CpMap(dim_in, dim_out, tuple(kraus))
    if norm is not None:
        top = float(np.linalg.eigvalsh(apply(t, np.eye(dim_in)))[-1])
        factor = np.sqrt(norm / top)
        t = CpMap(dim_in, dim_out, tuple(factor * v for v in kraus))
    return t


def rand_operation(rng, dim_in, dim_out, n_kraus=None):
    """Random quantum operation, T(1) <= 1 with some slack."""
    return rand_cp_map(rng, dim_in, dim_out, n_kraus, norm=float(rng.uniform(0.1, 1.0)))


def rand_channel(rng, dim_in, dim_out, n_kraus=None):
    """Random channel via a Haar-like isometry sliced into Kraus operators."""
    if n_kraus is None:
        lo = int(np.ceil(dim_out / dim_in))
        n_kraus = int(rng.integers(lo, lo + 3))
    if dim_in * n_kraus < dim_out:
        raise ValueError("need dim_in * n_kraus >= dim_out for an isometry")
    g = rand_complex(rng, dim_in * n_kraus, dim_out)
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    arr = q.reshape(dim_in, n_kraus, dim_out)
    return CpMap(dim_in, dim_out, tuple(arr[:, x, :] for x in range(n_kraus)))


def heisenberg_sum(kraus, a):
    """Independent oracle for the Kraus action (plain loop, no library calls)."""
    out = 0
    for v in kraus:
        out = out + np.asarray(v).conj().T @ np.asarray(a) @ np.asarray(v)
    return out


def order_gram_psd(s, t, rng, n_vectors=10, tol=1e-9):
    """Positivity-order oracle from the defining quadratic forms.

    Samples families {(eta_k, A_k)} and checks the Gram matrix
    G[k,l] = <eta_k | (T - S)(A_k* A_l) eta_l> for positive semidefiniteness;
    S <= T holds iff every such Gram matrix is PSD.
    """
    m = s.dim_in
    for _ in range(n_vectors):
        size = int(rng.integers(1, 4))
        etas = [rand_complex(rng, s.dim_out, 1)[:, 0] for _ in range(size)]
        amats = [rand_complex(rng, m, m) for _ in range(size)]
        gram = np.zeros((size, size), dtype=complex)
        for k in range(size):
            for l in range(size):
                prod = amats[k].conj().T @ amats[l]
                diff = heisenberg_sum(t.kraus, prod) - heisenberg_sum(s.kraus, prod)
                gram[k, l] = etas[k].conj() @ diff @ etas[l]
        w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        scale = max(1.0, float(np.abs(w).max()))
        if w[0] < -tol * scale:
            return False
    return True


def conic_chain(rng, m, n, length):
    """Random increasing chain of operations by accumulating CP increments."""
    increments = [
        rand_cp_map(rng, m, n, n_kraus=int(rng.integers(1, 3))) for _ in range(length)
    ]
    sums = []
    acc = increments[0]
    sums.append(acc)
    for inc in increments[1:]:
        acc = add(acc, inc)
        sums.append(acc)
    top = float(np.linalg.eigvalsh(apply(acc, np.eye(m)))[-1])
    factor = float(rng.uniform(0.3, 1.0)) / top
    return [scale(s, factor) for s in sums]


def matrix_units(d):
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield e


def reference_herm_eig(m):
    """herm_eig's (values, vectors) by a per-column loop and a tuple sort."""
    m = np.asarray(m, dtype=complex)
    return reference_eig_order(*np.linalg.eigh((m + m.conj().T) / 2.0))


def reference_eig_order(w, u):
    """canonical_eig's (values, vectors) for eigenpairs (w ascending, u's
    columns): each column's first component above EPS_PHASE is made real
    positive; pairs are sorted by descending eigenvalue, then by the
    components' (real, imag) parts, largest first."""

    def fix_phase(v):
        for x in v:
            if abs(x) > EPS_PHASE:
                return v * (np.conj(x) / abs(x))
        return v

    cols = [fix_phase(u[:, k]) for k in range(u.shape[1])]

    def key(k):
        parts = [-float(w[k])]
        for x in cols[k]:
            parts.append(-float(x.real))
            parts.append(-float(x.imag))
        return tuple(parts)

    order = sorted(range(len(cols)), key=key)
    values = np.array([float(w[k]) for k in order])
    vectors = np.column_stack([cols[k] for k in order]) if order else u
    return values, vectors


def reference_psd_leq(a, b, tol=EPS_PSD):
    """a <= b by is_psd's rule on b - a, by one eigvalsh of its own: the lowest
    eigenvalue of the Hermitian part of b - a is at least -tol * max(1, largest
    |eigenvalue|)."""
    d = np.asarray(b, dtype=complex) - np.asarray(a, dtype=complex)
    w = np.linalg.eigvalsh((d + d.conj().T) / 2.0)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    return bool(w.size == 0 or w[0] >= -tol * scale)


def reference_c_min(s, t):
    """Least c with s <= c * t, or inf, by compressing s's process operator
    with the inverse square root of t's on t's support."""
    cs = to_choi(s).matrix
    e = herm_eig(to_choi(t).matrix)
    top = float(e.values[0])
    keep = e.values >= RANK_TOL * top if top > 0.0 else np.zeros(len(e.values), bool)
    basis = e.vectors[:, keep]
    proj = basis @ basis.conj().T
    if op_norm(cs - proj @ cs @ proj) > recon_tol(op_norm(cs)):
        return float("inf")
    if not keep.any():
        return 0.0
    inv_root = (basis / np.sqrt(e.values[keep])) @ basis.conj().T
    return op_norm(inv_root @ cs @ inv_root)


def reference_faithful_rn(t, w):
    """(density, constant) of t against the faithful state w, entry by entry:
    <f_mu|T(|b_i><b_j|)f_nu> / sqrt(p_i p_j) at index (mu, i) -> mu * m + i."""
    m, n = t.dim_in, t.dim_out
    f = np.zeros((n * m, n * m), dtype=complex)
    root = np.sqrt(w.p)
    for i in range(m):
        for j in range(m):
            img = apply(t, np.outer(w.basis[:, i], w.basis[:, j].conj()))
            f[i::m, j::m] = img / (root[i] * root[j])
    f = hermitize(f)
    return f, op_norm(f)


def reference_kraus_stack(kraus):
    """Column-stack vec(V_x*), one operator at a time."""
    return np.column_stack([np.asarray(v, dtype=complex).conj().T.reshape(-1) for v in kraus])


def reference_to_choi(t):
    """m W W* through the public, fully checked ChoiOperator constructor."""
    w = reference_kraus_stack(t.kraus)
    return ChoiOperator(t.dim_in, t.dim_out, t.dim_in * (w @ w.conj().T))


def reference_canonical_kraus(t):
    """Canonical Kraus operators of t, one eigenvector at a time, from the
    per-operator stack's thin SVD (lam = m sigma^2) when it has fewer than
    m * n columns, else from the process operator's eigh."""
    m, n = t.dim_in, t.dim_out
    if len(t.kraus) < m * n:
        u, sv = np.linalg.svd(reference_kraus_stack(t.kraus), full_matrices=False)[:2]
        values, vectors = reference_eig_order(m * sv[::-1] ** 2, u[:, ::-1])
    else:
        values, vectors = reference_herm_eig(reference_to_choi(t).matrix)
    top = float(values[0])
    kraus = []
    for k, lam in enumerate(values):
        if top <= 0.0 or lam < RANK_TOL * top:
            break
        u = vectors[:, k].reshape(n, m)
        kraus.append(np.sqrt(lam / m) * u.conj().T)
    return kraus or [np.zeros((m, n), dtype=complex)]


def reference_density(s, t):
    """Density of s on t's canonical stack W, with W+ built one operator at
    a time: row x is conj(w_x) / ||w_x||^2, or zero for a zero operator,
    which is pinv(W) for W's orthogonal columns.  X X* for X = W+ v, v the
    per-operator stack of s, when it has fewer than m * n columns; else
    W+ C_s W+* for s's unnormalized process matrix C_s."""
    rows = []
    for v in reference_canonical_kraus(t):
        col = reference_kraus_stack([v])[:, 0]
        sq = (col.real**2 + col.imag**2).sum()
        rows.append(col.conj() / sq if sq > 0.0 else np.zeros_like(col))
    wp = np.array(rows)
    if len(s.kraus) < s.dim_in * s.dim_out:
        x = wp @ reference_kraus_stack(s.kraus)
        return hermitize(x @ x.conj().T)
    cs = reference_to_choi(s).matrix / s.dim_in
    return hermitize(wp @ cs @ wp.conj().T)


def dense_canonical(t):
    """canonicalize's process-operator route, whatever t's Kraus rank: the
    eigensystem of to_choi(t), as from_choi takes it."""
    return from_choi(to_choi(t))


def dense_density(s, w, wp):
    """radon._density's dense route on to_choi(s), whatever s's Kraus rank:
    F = wp C_s wp*, and NotDominated, with its message, when the residual
    w F w* - C_s fails norm_excess at recon_tol."""
    cs = to_choi(s).matrix / s.dim_in
    f = hermitize(wp @ cs @ wp.conj().T)
    resid = norm_excess(w @ f @ w.conj().T - cs, recon_tol, cs)
    if resid is not None:
        raise NotDominated(f"residual {resid:.3e} outside the dominating map's support")
    return f


def reference_apply(t, a):
    out = np.zeros((t.dim_out, t.dim_out), dtype=complex)
    for v in t.kraus:
        out += v.conj().T @ a @ v
    return out


def reference_apply_dual(t, rho):
    out = np.zeros((t.dim_in, t.dim_in), dtype=complex)
    for v in t.kraus:
        out += v @ rho @ v.conj().T
    return out


def reference_compose_kraus(second, first):
    return [v @ w for v in first.kraus for w in second.kraus]


def reference_common_dilation(f, m, n):
    """(1 (x) sqrt(F)) V_ref with the identity factor formed densely."""
    return np.kron(np.eye(m), psd_sqrt(f)) @ dilation_matrix(reference_channel(m, n))


def reference_jam_apply(f, a):
    """(1/m) tr_in[(1 (x) a^T) F] with the identity factor formed densely."""
    m, n = f.dim_in, f.dim_out
    prod = np.kron(np.eye(n), np.asarray(a).T) @ f.matrix
    return partial_trace(prod, "second", n, m) / m


def env_sandwich(v, a, p=None):
    """V*(A (x) P)V for V of shape (dim_in * env, dim_out), environment
    index fastest; P = None is the identity.  A acts on the input index of
    V's row blocks and P on the environment index, so A (x) P is never
    formed."""
    m = a.shape[0]
    blocks = np.asarray(v).reshape(m, -1, v.shape[1])
    if p is not None:
        blocks = p @ blocks
    mixed = (a @ blocks.reshape(m, -1)).reshape(-1, v.shape[1])
    return v.conj().T @ mixed


def reference_naimark_pvm(d, k):
    """The Naimark projections 1 (x) |delta_i><delta_i| on C^d (x) C^k,
    each formed as a dense Kronecker product."""
    pvm = []
    for i in range(k):
        marker = np.zeros((k, k), dtype=complex)
        marker[i, i] = 1.0
        pvm.append(np.kron(np.eye(d), marker))
    return pvm


def reference_chain_projections(d, k, length):
    """Partial sums of the first ``length`` dense Naimark projections."""
    return np.cumsum(reference_naimark_pvm(d, k)[:length], axis=0)


def ascent_input(t1, t2):
    """The norms ascent's ``g``: (C1 - C2) / m for the maps' ``to_choi``
    process operators, regrouped to ((out, out), (in, in)) indices."""
    m, n = t1.dim_in, t1.dim_out
    diff = (to_choi(t1).matrix - to_choi(t2).matrix).reshape(n, m, n, m)
    return diff.transpose(0, 2, 1, 3).reshape(n * n, m * m) / m


def reference_ascend(k1, k2, dim, rng, max_iter, tol):
    """One restart of the alternating ascent on the dense kron(V, 1_r)
    stacks, decomposed by herm_eig: (value, iterations) for (k, m, n)
    Kraus arrays and dim = n * r."""
    r = dim // k1.shape[2]
    eye_r = np.eye(r)
    s1 = np.array([np.kron(v, eye_r) for v in k1])
    s2 = np.array([np.kron(v, eye_r) for v in k2])
    s1h = s1.conj().transpose(0, 2, 1)
    s2h = s2.conj().transpose(0, 2, 1)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = psi / np.linalg.norm(psi)
    prev = -np.inf
    value = 0.0
    steps = 0
    for _ in range(max_iter):
        rho = np.outer(psi, psi.conj())
        x = (s1 @ rho @ s1h).sum(axis=0) - (s2 @ rho @ s2h).sum(axis=0)
        eig = herm_eig(x)
        value = float(np.sum(np.abs(eig.values)))
        steps += 1
        if value - prev <= tol * max(1.0, value):
            break
        prev = value
        signs = np.where(eig.values >= 0.0, 1.0, -1.0)
        sign_op = (eig.vectors * signs) @ eig.vectors.conj().T
        y = (s1h @ sign_op @ s1).sum(axis=0) - (s2h @ sign_op @ s2).sum(axis=0)
        psi = herm_eig(y).vectors[:, 0]
    return value, steps
