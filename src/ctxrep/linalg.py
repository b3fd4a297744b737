"""Symmetric eigendecomposition and kernel-matrix construction.

Everything here operates on dense float64 arrays at batch scale (a few dozen
samples). Every LAPACK call of the package goes through this module, so that
a LAPACK failure raises :class:`NonConvergence` wherever it happens.
``_eigh_descending`` takes its eigenpairs from LAPACK and is the package's one
eigensolver, and ``_eigvalsh`` its eigenvalues-only sibling; the cyclic Jacobi
solver :func:`jacobi_eigh` is the reference the tests hold them to.

Both call numpy's own LAPACK gufuncs, the float64 loops that numpy's ``eigh``
and ``eigvalsh`` run, under the same floating-point policy. They return the
same bits without the wrappers' dispatch, which on an 8 x 8 kernel costs
about half as much as LAPACK itself.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

MAX_EIGH_DIM = 1024

_ASYMMETRY_TOLERANCE = 1e-9
_OFFDIAG_TOLERANCE = 1e-14
_MAX_SWEEPS = 100


class NonConvergence(ArithmeticError):
    """An eigensolver failed to converge."""


class DegenerateVector(ValueError):
    """A sample vector has zero Euclidean norm."""


class SymMatrix:
    """Real symmetric matrix, symmetrized as (A + A^T)/2 on construction.

    Asymmetry above 1e-9 (max absolute entry difference) is rejected; smaller
    asymmetry is repaired silently.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must have dimension >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > _ASYMMETRY_TOLERANCE:
            raise ValueError(f"input asymmetry {asym:.3e} exceeds {_ASYMMETRY_TOLERANCE}")
        self.entries = (a + a.T) / 2.0
        self.dim = int(a.shape[0])

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


class ContextBatch:
    """Batch of flattened per-sample context vectors, one row per sample.

    Leading axes, if any, stack independent batches of the same shape (one
    per seed): :func:`ctxrep.repulsion.repulse` and
    :func:`ctxrep.vendi.entropy_gradient` treat each on its own, while the
    kernels and scores take a single (B, D) batch.

    Rows may have zero Euclidean norm: the RBF kernel is defined there. The
    cosine kernel and the entropy gradient divide by the norms and raise
    :class:`DegenerateVector` on such a row.
    """

    def __init__(self, vectors):
        v = np.array(vectors, dtype=float)
        if v.ndim < 2:
            raise ValueError(f"expected a 2-d batch, got shape {v.shape}")
        if 0 in v.shape[:-1]:
            raise ValueError("batch must contain at least one sample")
        if not np.isfinite(v).all():
            raise ValueError("batch entries must be finite")
        self.vectors = v

    @classmethod
    def _trusted(cls, vectors: np.ndarray) -> ContextBatch:
        """A batch over ``vectors`` as they are, without the copy and the
        checks: the caller vouches that they are a finite float array of a
        valid shape."""
        batch = cls.__new__(cls)
        batch.vectors = vectors
        return batch

    @property
    def batch_size(self) -> int:
        return int(self.vectors.shape[-2])

    @property
    def vector_dim(self) -> int:
        return int(self.vectors.shape[-1])

    def __repr__(self) -> str:
        return f"ContextBatch(batch_size={self.batch_size}, vector_dim={self.vector_dim})"


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(m: SymMatrix, max_sweeps: int = _MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition by row-cyclic Jacobi rotations, in the form of
    ``_eigh_descending``: eigenvalues descending, and eigenvectors as columns
    in the same order, with the signs the rotations leave.

    Converges when the off-diagonal Frobenius norm drops below 1e-14 times the
    Frobenius norm of the input; raises :class:`NonConvergence` after
    ``max_sweeps`` sweeps otherwise.
    """
    n = m.dim
    if n > MAX_EIGH_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_EIGH_DIM}")
    a = m.entries.copy()
    v = np.eye(n)
    tol = _OFFDIAG_TOLERANCE * float(np.linalg.norm(a))
    # rotating every pivot above tol/n forces the off-norm under tol
    pivot_tol = tol / max(n, 1)

    sweeps = 0
    while _offdiag_norm(a) > tol:
        if sweeps >= max_sweeps:
            raise NonConvergence(
                f"off-diagonal norm {_offdiag_norm(a):.3e} above {tol:.3e} "
                f"after {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= pivot_tol:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                # smaller-root tangent keeps the rotation angle below pi/4
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, :] = a[:, p]
                a[q, :] = a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
        sweeps += 1

    eigenvalues = np.diag(a)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


# numpy's LAPACK gufuncs on the lower triangle, read from this module's
# namespace at each call
_eigh_lo = _umath_linalg.eigh_lo
_eigvalsh_lo = _umath_linalg.eigvalsh_lo

# the policy numpy's wrappers call the gufuncs under: a failed LAPACK call
# leaves NaN output and sets the invalid flag, which is an error whatever the
# caller's policy, and over/divide/underflow inside LAPACK is ignored
_LAPACK_ERRORS = np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")


@_LAPACK_ERRORS
def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigenpairs of a symmetric float64 array, or of each matrix in a
    stack (one LAPACK call per matrix, so each gets the bits of a solo call):
    eigenvalues descending, and C-contiguous eigenvectors as columns in the
    same order.

    The caller vouches for symmetry; a LAPACK failure raises
    :class:`NonConvergence`.
    """
    try:
        eigenvalues, vectors = _eigh_lo(a, signature="d->dd")
    except FloatingPointError as exc:
        raise NonConvergence("LAPACK eigh failed: Eigenvalues did not converge") from exc
    # a negative-stride view can send a later matmul off the BLAS path
    return eigenvalues[..., ::-1], np.ascontiguousarray(vectors[..., ::-1])


@_LAPACK_ERRORS
def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """LAPACK eigenvalues of a symmetric float64 array, ascending.

    The caller vouches for symmetry; a LAPACK failure raises
    :class:`NonConvergence`.
    """
    try:
        return _eigvalsh_lo(a, signature="d->d")
    except FloatingPointError as exc:
        raise NonConvergence("LAPACK eigvalsh failed: Eigenvalues did not converge") from exc


def _fill_diagonal(a: np.ndarray, value: float) -> None:
    """``np.fill_diagonal`` on the last two axes, for each matrix of a
    C-contiguous stack."""
    # the reshape is a view only of a contiguous array; a copy would lose the fill
    if not a.flags.c_contiguous:
        raise ValueError("expected a C-contiguous array")
    a.reshape(a.shape[:-2] + (-1,))[..., :: a.shape[-1] + 1] = value


def _unit_rows_and_cosine(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row norms (as a column), unit rows and the cosine kernel of a batch of
    finite vectors, or of each batch in a stack on leading axes.

    The kernel is exactly symmetric and finite with a unit diagonal: numpy
    computes ``unit @ unit.T`` as a symmetric rank-k update and mirrors one
    triangle (per matrix of a stack too), and the elementwise snap and the
    diagonal fill keep it so.
    """
    # the same bits as np.linalg.norm(vectors, axis=-1, keepdims=True),
    # without its dispatch
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1, keepdims=True))
    if not norms.all():
        raise DegenerateVector("zero-norm sample vector")
    unit = vectors / norms
    k = unit @ unit.swapaxes(-1, -2)
    # directions closer than 1e-12 in cosine are numerically identical;
    # snapping makes duplicate samples give an exactly rank-deficient kernel,
    # and it also clips roundoff past +-1
    k[k > 1.0 - 1e-12] = 1.0
    k[k < -1.0 + 1e-12] = -1.0
    _fill_diagonal(k, 1.0)
    return norms, unit, k


def _single_batch(batch: ContextBatch) -> np.ndarray:
    """The (B, D) vectors of a batch that is not a stack of batches."""
    if batch.vectors.ndim != 2:
        raise ValueError(
            f"a kernel takes one (B, D) batch, got a stack of batches of shape "
            f"{batch.vectors.shape}"
        )
    return batch.vectors


def cosine_kernel(batch: ContextBatch) -> SymMatrix:
    """Pairwise cosine similarities; unit diagonal, entries in [-1, 1]."""
    return SymMatrix(_unit_rows_and_cosine(_single_batch(batch))[2])


def rbf_kernel(points: ContextBatch, bandwidth: float) -> SymMatrix:
    """Gaussian kernel exp(-||x_i - x_j||^2 / (2 h^2)); unit diagonal."""
    return SymMatrix(_rbf_entries(_single_batch(points), bandwidth))


def _rbf_entries(x: np.ndarray, bandwidth: float) -> np.ndarray:
    """The entries of :func:`rbf_kernel` for a (B, D) array of finite points,
    or for each batch of a stack on leading axes, with a solo call's bits.

    They are symmetrized as :class:`SymMatrix` symmetrizes, and the Gram
    matrix is a symmetric rank-k update per matrix of a stack too (see
    ``_unit_rows_and_cosine``), so the symmetrization changes no bit.
    """
    if not (bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    sq = np.add.reduce(x * x, axis=-1)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (x @ x.swapaxes(-1, -2))
    np.clip(d2, 0.0, None, out=d2)
    k = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    _fill_diagonal(k, 1.0)
    return (k + k.swapaxes(-1, -2)) / 2.0


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each with the bits of a 1-D sum of its row.

    On a C-contiguous array numpy sums each row on its own, pairwise, as it
    sums a 1-D row; other layouts it may walk across rows, adding in
    another order, so they are made contiguous first.
    """
    return np.add.reduce(np.ascontiguousarray(a), axis=-1)
