"""Independent oracles used by the tests.

These deliberately avoid the production code path they check: gradients
come from central finite differences and numpy's LAPACK eigenvalues, while
scores (which the package takes from LAPACK) are checked against the Jacobi
solver. The one-draw-at-a-time SplitMix64 normals and the pair-by-pair Vendi
average are the straightforward forms of what the package computes in
blocks; the tests hold the block forms to them.
"""

from __future__ import annotations

import math

import numpy as np

from ctxrep.linalg import SymMatrix, cosine_kernel, jacobi_eigh, rbf_kernel

EIGENVALUE_FLOOR = 1e-12


def next_unit(rng) -> float:
    """One SplitMix64 draw mapped by its top 53 bits into (0, 1]."""
    return ((rng.next_uint64() >> 11) + 1) * (1.0 / (1 << 53))


def next_gauss(rng) -> float:
    """One Box-Muller standard normal, cosine first, keeping the sine as spare."""
    if rng._spare is not None:
        value, rng._spare = rng._spare, None
        return value
    u1 = next_unit(rng)
    u2 = next_unit(rng)
    radius = math.sqrt(-2.0 * math.log(u1))
    angle = 2.0 * math.pi * u2
    rng._spare = radius * math.sin(angle)
    return radius * math.cos(angle)


def normal_array(rng, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """``ctxrep.rng.normal_array`` one scalar draw at a time."""
    count = int(np.prod(shape, dtype=np.int64))
    values = [scale * next_gauss(rng) for _ in range(count)]
    return np.array(values, dtype=float).reshape(shape)


def jacobi_entropy(k: np.ndarray) -> float:
    """Floored spectral entropy of K/B from the Jacobi solver, not LAPACK."""
    lam = jacobi_eigh(SymMatrix(k / k.shape[0])).eigenvalues
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    entropy = max(float(-np.sum(lam * np.log(safe))), 0.0)
    return 0.0 if entropy < 1e-14 else entropy


def average_pair_vendi_loop(points, kernel_kind: str = "cosine", bandwidth=None) -> float:
    """Mean 2-sample score, one Jacobi-solved 2 x 2 kernel per pair."""
    if kernel_kind == "cosine":
        full = cosine_kernel(points).entries
    else:
        full = rbf_kernel(points, bandwidth).entries
    b = points.batch_size
    total = 0.0
    count = 0
    for i in range(b - 1):
        for j in range(i + 1, b):
            k_ij = full[i, j]
            total += math.exp(jacobi_entropy(np.array([[1.0, k_ij], [k_ij, 1.0]])))
            count += 1
    return total / count


def entropy_of_vectors(vectors: np.ndarray) -> float:
    """Spectral entropy of the batch cosine kernel via numpy's eigvalsh."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    kernel = unit @ unit.T
    np.fill_diagonal(kernel, 1.0)
    lam = np.linalg.eigvalsh(kernel / vectors.shape[0])
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    return float(max(-np.sum(lam * np.log(safe)), 0.0))


def fd_entropy_gradient(vectors: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of the batch entropy, one coordinate at a time.

    All perturbed batches are evaluated in one stacked eigvalsh call so the
    full acceptance grid stays fast.
    """
    b, nd = vectors.shape
    n_pert = 2 * b * nd
    stack = np.broadcast_to(vectors, (n_pert, b, nd)).copy()
    signs = np.empty(n_pert)
    idx = 0
    for i in range(b):
        for j in range(nd):
            stack[idx, i, j] += step
            signs[idx] = 1.0
            stack[idx + 1, i, j] -= step
            signs[idx + 1] = -1.0
            idx += 2

    norms = np.linalg.norm(stack, axis=2, keepdims=True)
    unit = stack / norms
    kernels = np.einsum("pik,pjk->pij", unit, unit)
    diag = np.arange(b)
    kernels[:, diag, diag] = 1.0
    lam = np.linalg.eigvalsh(kernels / b)
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    entropies = -np.sum(lam * np.log(safe), axis=1)

    diff = entropies[0::2] - entropies[1::2]
    return (diff / (2.0 * step)).reshape(b, nd)
