"""Spectral diversity: Vendi score, entropy loss, and its analytic gradient.

The loss is the von Neumann entropy of the batch-normalized similarity kernel,
L = -sum_k lambda_k log lambda_k over the eigenvalues of K/B, and the score is
exp(L), interpretable as the effective number of distinct samples (1 to B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ContextBatch,
    SymMatrix,
    _eigh_descending,
    _eigvalsh,
    _fill_diagonal,
    _row_sums,
    _unit_rows_and_cosine,
)

EIGENVALUE_FLOOR = 1e-12

_UNIT_DIAGONAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DiversityValue:
    """Entropy in nats together with its exponential (the score)."""

    entropy: float
    score: float


def entropy_and_score(k: SymMatrix) -> DiversityValue:
    """Spectral entropy of K/B and its exponential.

    Eigenvalues are floored at 1e-12 before the log, which realizes the
    0 log 0 = 0 convention for rank-deficient kernels (identical samples).
    """
    _check_unit_diagonal(k)
    entropy = float(_kernel_entropies(k.entries))
    return DiversityValue(entropy=entropy, score=float(np.exp(entropy)))


def _kernel_entropies(kernels: np.ndarray) -> np.ndarray:
    """Floored spectral entropy of K/B for a unit-diagonal (B, B) kernel, or
    for each kernel of a stack on leading axes; one LAPACK call per matrix,
    so each gets the bits of a solo call."""
    return _entropies(_eigvalsh(kernels / kernels.shape[-1]))


def _check_unit_diagonal(k: SymMatrix) -> None:
    if float(np.max(np.abs(np.diag(k.entries) - 1.0))) > _UNIT_DIAGONAL_TOLERANCE:
        raise ValueError("kernel must have unit diagonal")


def _entropies(lam: np.ndarray) -> np.ndarray:
    """Floored spectral entropy of each row of eigenvalues, each row summed
    with the bits of its own 1-D sum."""
    safe = np.maximum(lam, EIGENVALUE_FLOOR)
    entropy = np.maximum(-_row_sums(lam * np.log(safe)), 0.0)
    # below the eigensolver's own residual floor; identical samples land here
    return np.where(entropy < 1e-14, 0.0, entropy)


def entropy_gradient(batch: ContextBatch) -> np.ndarray:
    """Exact gradient of the entropy loss with respect to the raw vectors.

    Chain rule through the cosine kernel: with eigenpairs (lambda, U) of
    K/B and floored eigenvalues, dL/dK = U diag(-(log lambda + 1)) U^T / B,
    and dK_ij/dc_i = c_j/(|c_i||c_j|) - K_ij c_i/|c_i|^2 for i != j (the unit
    diagonal contributes nothing). Symmetry of K doubles the off-diagonal
    terms. Returns an array with the same shape as ``batch.vectors``; a
    stack of batches on leading axes gets each batch's gradient, bit for bit
    what a solo call returns. Raises :class:`DegenerateVector` on a zero row,
    where the cosine is undefined. The eigenpairs come from LAPACK through
    ``linalg._eigh_descending``, the package's one eigensolver.

    The kernel goes to LAPACK as built (exactly symmetric, see
    ``_unit_rows_and_cosine``), and the eigenvectors keep LAPACK's signs:
    negating column k of U negates both factors of u_k f'_k u_k^T, so dL/dK
    does not change by a single bit.
    """
    b = batch.batch_size
    if b < 2:
        raise ValueError("gradient requires at least two samples")
    norms, unit, kernel = _unit_rows_and_cosine(batch.vectors)
    eigenvalues, u = _eigh_descending(kernel / b)
    f_prime = -(np.log(np.maximum(eigenvalues, EIGENVALUE_FLOOR)) + 1.0)
    dl_dk = (u * f_prime[..., None, :]) @ u.swapaxes(-1, -2) / b
    _fill_diagonal(dl_dk, 0.0)  # the unit diagonal contributes nothing
    radial = (dl_dk * kernel).sum(axis=-1, keepdims=True)
    return 2.0 * (dl_dk @ unit - radial * unit) / norms


def average_pair_vendi(kernel: SymMatrix) -> float:
    """Mean 2-sample score over all unordered pairs behind a unit-diagonal
    kernel; lies in [1, 2]. Any other diagonal raises ValueError, as in
    :func:`entropy_and_score`.

    Each pair's score comes from the closed-form spectrum of its 2 x 2 kernel.
    """
    if kernel.dim < 2:
        raise ValueError("pair average requires at least two samples")
    _check_unit_diagonal(kernel)
    return float(_mean_pair_scores(kernel.entries))


def _mean_pair_scores(kernels: np.ndarray) -> np.ndarray:
    """The pair average of a unit-diagonal (B, B) kernel with B >= 2, or of
    each kernel of a stack on leading axes, each with a solo call's bits."""
    # the spectrum of [[1, k], [k, 1]]/2 is (1 + k)/2, (1 - k)/2
    rows, cols = np.triu_indices(kernels.shape[-1], 1)
    k = kernels[..., rows, cols]
    lam = np.stack([(1.0 + k) / 2.0, (1.0 - k) / 2.0], axis=-1)
    return _row_sums(np.exp(_entropies(lam))) / k.shape[-1]
