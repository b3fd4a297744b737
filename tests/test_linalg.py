import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctxrep.linalg

from ctxrep.linalg import (
    MAX_EIGH_DIM,
    ContextBatch,
    DegenerateVector,
    NonConvergence,
    SymMatrix,
    _eigh_descending,
    _unit_rows_and_cosine,
    cosine_kernel,
    jacobi_eigh,
    rbf_kernel,
)

from ._oracles import canonical_signs


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return SymMatrix((a + a.T) / 2.0)


class TestSymMatrix:
    def test_symmetrizes_small_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        m = SymMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)

    def test_rejects_large_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-6], [0.5, 1.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            SymMatrix(a)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestJacobi:
    def test_identity_spectrum(self):
        eigenvalues, vectors = jacobi_eigh(SymMatrix(np.eye(3)))
        assert np.allclose(eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
        # columns are standard basis vectors up to permutation and sign
        assert np.allclose(np.abs(vectors).sum(axis=0), 1.0, atol=1e-12)

    def test_two_by_two_exact(self):
        rho = 0.5
        eigenvalues, _ = jacobi_eigh(SymMatrix(np.array([[1.0, rho], [rho, 1.0]])))
        assert abs(eigenvalues[0] - 1.5) <= 1e-12
        assert abs(eigenvalues[1] - 0.5) <= 1e-12

    def test_diagonal_passthrough(self):
        eigenvalues, _ = jacobi_eigh(SymMatrix(np.diag([3.0, 2.0, 1.0])))
        assert np.allclose(eigenvalues, [3.0, 2.0, 1.0], atol=0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 33))
            m = random_symmetric(rng, n)
            eigenvalues, vectors = jacobi_eigh(m)
            scale = max(1.0, float(np.max(np.abs(m.entries))))
            rebuilt = vectors @ np.diag(eigenvalues) @ vectors.T
            assert np.max(np.abs(rebuilt - m.entries)) <= 1e-10 * scale
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        eigenvalues, _ = jacobi_eigh(random_symmetric(rng, 8))
        assert np.all(np.diff(eigenvalues) <= 1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        m = random_symmetric(rng, 12)
        a = jacobi_eigh(m)
        b = jacobi_eigh(SymMatrix(m.entries.copy()))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_nonconvergence_when_no_sweeps_allowed(self):
        m = SymMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        with pytest.raises(NonConvergence):
            jacobi_eigh(m, max_sweeps=0)

    def test_dimension_cap(self):
        m = SymMatrix(np.eye(MAX_EIGH_DIM + 1))
        with pytest.raises(ValueError, match="exceeds"):
            jacobi_eigh(m)


class TestEigh:
    """``_eigh_descending``, the package's one eigensolver."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16))
    def test_matches_jacobi_order_and_signs(self, seed, n):
        m = random_symmetric(np.random.default_rng(seed), n)
        reference_values, reference_vectors = jacobi_eigh(m)
        # well-separated spectra pin each eigenvector up to its sign
        assume(n == 1 or float(np.min(-np.diff(reference_values))) >= 1e-3)
        eigenvalues, vectors = _eigh_descending(m.entries)
        assert np.max(np.abs(eigenvalues - reference_values)) <= 1e-12 * n
        gap = canonical_signs(vectors) - canonical_signs(reference_vectors)
        assert np.max(np.abs(gap)) <= 1e-8

    def test_reconstruction_and_canonical_form(self):
        # the form the gradient relies on: descending eigenvalues and
        # C-contiguous eigenvector columns, in LAPACK's own signs
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 32, 64):
            m = random_symmetric(rng, n)
            eigenvalues, vectors = _eigh_descending(m.entries)
            assert np.all(np.diff(eigenvalues) <= 0.0)
            rebuilt = vectors @ np.diag(eigenvalues) @ vectors.T
            assert np.max(np.abs(rebuilt - m.entries)) <= 1e-12 * n
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) <= 1e-12 * n
            assert vectors.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16))
    def test_oracle_sign_helper_negates_whole_columns(self, seed, n):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n + 1, n))
        # a leading component of at most 1e-12 does not set the sign
        vectors[0, ::2] = rng.uniform(-1e-12, 1e-12, size=vectors[0, ::2].shape)
        signed = canonical_signs(vectors)
        flipped = np.all(signed == -vectors, axis=0)
        assert np.all(flipped | np.all(signed == vectors, axis=0))
        for k in range(n):
            column = signed[:, k]
            assert column[np.abs(column) > 1e-12][0] >= 0.0
        tiny_lead = np.array([[-1e-13, 0.0], [-0.5, 2.0]])
        assert np.array_equal(canonical_signs(tiny_lead), np.array([[1e-13, 0.0], [0.5, 2.0]]))

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        def failing(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NonConvergence, match="did not converge"):
            _eigh_descending(np.eye(3))

    def test_eigenvalues_only_failure_is_nonconvergence(self, monkeypatch):
        def failing(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        eigvalsh = ctxrep.linalg._eigvalsh
        assert np.array_equal(eigvalsh(np.diag([2.0, 1.0])), [1.0, 2.0])
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NonConvergence, match="did not converge"):
            eigvalsh(np.eye(3))

    def test_every_lapack_call_goes_through_linalg(self):
        # so a LAPACK failure is NonConvergence (exit 3) wherever it happens
        package = pathlib.Path(ctxrep.__file__).parent
        callers = sorted(p.name for p in package.glob("*.py") if "np.linalg.eig" in p.read_text())
        assert callers == ["linalg.py"]


class TestContextBatch:
    def test_accepts_zero_vector(self):
        # only kernels that divide by norms reject a zero row
        batch = ContextBatch(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert batch.batch_size == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ContextBatch(np.zeros(3))
        with pytest.raises(ValueError):
            ContextBatch(np.zeros((0, 3)))

    def test_shape_accessors(self):
        batch = ContextBatch(np.ones((3, 5)))
        assert batch.batch_size == 3
        assert batch.vector_dim == 5


@pytest.mark.parametrize(
    "kernel", [cosine_kernel, lambda batch: rbf_kernel(batch, 1.0)], ids=["cosine", "rbf"]
)
def test_kernels_reject_a_stack_of_batches(kernel):
    with pytest.raises(
        ValueError, match=r"one \(B, D\) batch, got a stack of batches of shape \(2, 3, 4\)"
    ):
        kernel(ContextBatch(np.ones((2, 3, 4))))


class TestCosineKernel:
    def test_rejects_zero_vector(self):
        with pytest.raises(DegenerateVector):
            cosine_kernel(ContextBatch(np.array([[1.0, 0.0], [0.0, 0.0]])))

    def test_identical_vectors_all_ones(self):
        batch = ContextBatch(np.tile([1.0, 2.0, -1.0], (4, 1)))
        k = cosine_kernel(batch).entries
        assert np.array_equal(k, np.ones((4, 4)))

    def test_orthonormal_basis_identity(self):
        k = cosine_kernel(ContextBatch(np.eye(5))).entries
        assert np.allclose(k, np.eye(5), atol=1e-15)

    def test_known_pair(self):
        k = cosine_kernel(ContextBatch(np.array([[1.0, 0.0], [1.0, 1.0]]))).entries
        assert abs(k[0, 1] - 1.0 / np.sqrt(2.0)) <= 1e-15

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((6, 10))
        scales = rng.uniform(0.1, 50.0, size=6)
        base = cosine_kernel(ContextBatch(vectors)).entries
        scaled = cosine_kernel(ContextBatch(vectors * scales[:, None])).entries
        assert np.max(np.abs(base - scaled)) <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((7, 4))
        perm = rng.permutation(7)
        base = cosine_kernel(ContextBatch(vectors)).entries
        shuffled = cosine_kernel(ContextBatch(vectors[perm])).entries
        assert np.max(np.abs(shuffled - base[np.ix_(perm, perm)])) <= 1e-15

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(2, 16),
        width=st.integers(1, 600),
        duplicate=st.booleans(),
        antipodal=st.booleans(),
        data=st.data(),
    )
    def test_raw_kernel_is_exactly_symmetric(self, seed, batch, width, duplicate, antipodal, data):
        # the gradient hands this kernel to LAPACK unchecked, so the checks
        # SymMatrix would make must already hold for it as built
        directions = np.random.default_rng(seed).standard_normal((batch, width))
        if duplicate:
            directions[1] = directions[0]  # snapped to exactly 1
        if antipodal:
            directions[-1] = -directions[0]  # snapped to exactly -1
        exponents = data.draw(st.lists(st.integers(-150, 150), min_size=batch, max_size=batch))
        vectors = directions * 10.0 ** np.array(exponents, dtype=float)[:, None]
        k = _unit_rows_and_cosine(vectors)[2]
        assert np.array_equal(k, k.T)
        assert np.isfinite(k).all()
        assert np.array_equal(np.diag(k), np.ones(batch))
        assert np.abs(k).max() <= 1.0
        if duplicate and not (antipodal and batch == 2):
            assert k[0, 1] == 1.0
        if antipodal:
            assert k[0, -1] == -1.0


class TestRbfKernel:
    def test_accepts_zero_vector(self):
        k = rbf_kernel(ContextBatch(np.array([[0.0, 0.0], [1.0, 0.0]])), 1.0).entries
        assert abs(k[0, 1] - np.exp(-0.5)) <= 1e-15

    def test_coincident_points_all_ones(self):
        k = rbf_kernel(ContextBatch(np.tile([2.0, 3.0], (3, 1))), 1.5).entries
        assert np.array_equal(k, np.ones((3, 3)))

    def test_known_distance(self):
        h = 0.7
        pts = np.array([[0.0, 0.0], [h * np.sqrt(2.0), 0.0]])
        k = rbf_kernel(ContextBatch(pts + 1.0), h).entries
        assert abs(k[0, 1] - np.exp(-1.0)) <= 1e-12

    def test_decay_limit(self):
        h = 0.5
        pts = np.array([[0.0, 1.0], [20.0 * h, 1.0]])
        k = rbf_kernel(ContextBatch(pts), h).entries
        assert k[0, 1] < 1e-12

    def test_bandwidth_validation(self):
        batch = ContextBatch(np.ones((2, 2)))
        with pytest.raises(ValueError):
            rbf_kernel(batch, 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        base = rbf_kernel(ContextBatch(pts), 1.1).entries
        shuffled = rbf_kernel(ContextBatch(pts[perm]), 1.1).entries
        assert np.max(np.abs(shuffled - base[np.ix_(perm, perm)])) <= 1e-15
