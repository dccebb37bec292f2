"""Independent numpy oracles for the benchmark's outputs.

Nothing here calls into the library: process operators are built from
their definition, maps are applied as plain Kraus sums, and derivative
densities are compared through their spectra, which do not depend on the
basis the library picks for the dominating map's environment.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-8


def ops(t):
    return [np.asarray(v) for v in t.kraus]


def choi(kraus, m):
    """F[(mu,i),(nu,j)] = m <f_mu| T(|e_i><e_j|) |f_nu>, T(A) = sum V* A V."""
    v = np.stack(kraus)
    n = v.shape[2]
    f = m * np.einsum("xiu,xjv->uivj", v.conj(), v)
    return f.reshape(n * m, n * m)


def heis(kraus, a):
    out = 0
    for v in kraus:
        out = out + v.conj().T @ a @ v
    return out


def compose_kraus(first, second):
    return [v @ w for v in first for w in second]


def close(a, b, tol=TOL):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


def eigs(a):
    return np.linalg.eigvalsh((a + a.conj().T) / 2)


def is_psd(a, tol=1e-9):
    w = eigs(a)
    return w[0] >= -tol * max(1.0, np.abs(w).max())


def support(ct):
    """Eigenvectors and eigenvalues of ct above the relative rank cutoff."""
    w, u = np.linalg.eigh((ct + ct.conj().T) / 2)
    keep = w >= 1e-10 * w[-1]
    return u[:, keep], w[keep]


def density(ct, cs):
    """Derivative density of cs against ct in this module's own basis."""
    u, w = support(ct)
    root = 1.0 / np.sqrt(w)
    return (u.conj().T @ cs @ u) * np.outer(root, root)


def same_spectrum(f, g, tol=TOL):
    f = np.asarray(f)
    g = np.asarray(g)
    return f.shape == g.shape and close(eigs(f), eigs(g), tol)


def leak(ct, cs):
    u, _ = support(ct)
    proj = u @ u.conj().T
    return np.abs(cs - proj @ cs @ proj).max() / max(1.0, np.abs(cs).max())


def cmin_ok(c, ct, cs, eps=1e-6):
    """c * ct - cs is positive definite on ct's support just above c and
    indefinite just below it."""
    u, w = support(ct)
    s = u.conj().T @ cs @ u
    above = eigs((1 + eps) * c * np.diag(w) - s)[0]
    below = eigs((1 - eps) * c * np.diag(w) - s)[0]
    return leak(ct, cs) <= 1e-9 and above > 0 > below


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def chain_ok(rng, iso, projections, chain_ops, m):
    """T_k(A) = V*(A (x) P_k)V for a random A; the P_k increase."""
    a = random_hermitian(rng, m)
    for k, kraus in enumerate(chain_ops):
        p = projections[k]
        if not close(p @ p, p):
            return False
        if k and not close(p @ projections[k - 1], projections[k - 1]):
            return False
        if not close(iso.conj().T @ np.kron(a, p) @ iso, heis(kraus, a)):
            return False
    return True


def faithful(kraus, p, basis):
    """<f_mu|T(|b_i><b_j|)|f_nu> / sqrt(p_i p_j) at index (mu*m + i, nu*m + j)."""
    m = len(p)
    root = np.sqrt(p)
    f = 0
    for v in kraus:
        y = v.conj().T @ basis / root
        f = f + np.einsum("ui,vj->uivj", y, y.conj())
    n = kraus[0].shape[1]
    return f.reshape(n * m, n * m)


def _psd_sqrt(a):
    w, u = np.linalg.eigh((a + a.conj().T) / 2)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def bracket(k1, k2, m, lower, upper_rn, upper_dilation, cb_exact):
    """Check a norm bracket of two channels against recomputed upper bounds."""
    if cb_exact is not None or not 0.0 < lower <= 2.0 + 1e-9:
        return False
    if lower > min(upper_rn, upper_dilation) * (1.0 + 1e-9) + 1e-12:
        return False
    c1, c2 = choi(k1, m), choi(k2, m)
    unit = np.linalg.norm(heis(k1 + k2, np.eye(m)), 2)
    rn = unit * np.linalg.norm(density(c1 + c2, c1) - density(c1 + c2, c2), 2)
    n = k1[0].shape[1]
    env = m * n
    v_ref = np.zeros((m * env, n))
    for mu in range(n):
        for i in range(m):
            v_ref[i * env + mu * m + i, mu] = 1.0 / np.sqrt(m)
    v1 = np.kron(np.eye(m), _psd_sqrt(c1)) @ v_ref
    v2 = np.kron(np.eye(m), _psd_sqrt(c2)) @ v_ref
    norm = lambda a: np.linalg.norm(a, 2)  # noqa: E731
    dil = (norm(v1) + norm(v2)) * norm(v1 - v2)
    return close(upper_rn, rn, 1e-7) and close(upper_dilation, dil, 1e-7)
