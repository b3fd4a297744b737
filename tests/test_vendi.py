import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxrep.linalg import (
    ContextBatch,
    DegenerateVector,
    NonConvergence,
    SymMatrix,
    cosine_kernel,
    eigh,
    jacobi_eigh,
    rbf_kernel,
)
from ctxrep.vendi import (
    EIGENVALUE_FLOOR,
    average_pair_vendi,
    entropy_and_score,
    entropy_gradient,
)

from ._oracles import (
    average_pair_vendi_loop,
    entropy_gradient_with,
    entropy_of_vectors,
    fd_entropy_gradient,
    jacobi_entropy,
)

# hand eigendecomposition of [[1, .5], [.5, 1]]/2: lambda = (0.75, 0.25)
TWO_SAMPLE_HALF_ENTROPY = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))


def random_points(seed: int, batch: int, dim: int, spread: float) -> np.ndarray:
    """Points with some exact duplicates, so rank-deficient kernels occur too."""
    rng = np.random.default_rng(seed)
    points = spread * rng.standard_normal((batch, dim))
    duplicates = rng.integers(0, batch, size=batch // 4)
    points[duplicates] = points[0]
    return points


class TestEntropyAndScore:
    def test_identical_samples(self):
        value = entropy_and_score(SymMatrix(np.ones((4, 4))))
        assert value.entropy == 0.0
        assert value.score == 1.0

    def test_orthonormal_samples(self):
        value = entropy_and_score(SymMatrix(np.eye(4)))
        assert abs(value.entropy - np.log(4.0)) <= 1e-12
        assert abs(value.score - 4.0) <= 1e-11

    def test_half_correlated_pair(self):
        value = entropy_and_score(SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert abs(value.entropy - TWO_SAMPLE_HALF_ENTROPY) <= 1e-12
        assert abs(value.score - np.exp(TWO_SAMPLE_HALF_ENTROPY)) <= 1e-12
        assert abs(value.score - 1.75477) <= 1e-4

    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            entropy_and_score(SymMatrix(np.diag([2.0, 1.0])))

    def test_score_bounds_random_kernels(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            b = int(rng.integers(2, 9))
            vectors = rng.standard_normal((b, int(rng.integers(3, 12))))
            value = entropy_and_score(cosine_kernel(ContextBatch(vectors)))
            assert 1.0 - 1e-9 <= value.score <= b + 1e-9
            assert abs(value.score - np.exp(value.entropy)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((6, 8))
        perm = rng.permutation(6)
        a = entropy_and_score(cosine_kernel(ContextBatch(vectors)))
        b = entropy_and_score(cosine_kernel(ContextBatch(vectors[perm])))
        assert abs(a.entropy - b.entropy) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 32),
        dim=st.integers(1, 40),
        kind=st.sampled_from(["cosine", "rbf"]),
    )
    def test_matches_jacobi_entropy(self, seed, batch, dim, kind):
        points = ContextBatch(random_points(seed, batch, dim, 1.0) + (kind == "cosine"))
        if kind == "cosine":
            kernel = cosine_kernel(points)
        else:
            kernel = rbf_kernel(points, 0.5 * np.sqrt(dim))
        value = entropy_and_score(kernel)
        assert abs(value.entropy - jacobi_entropy(kernel.entries)) <= 1e-12
        assert value.score == np.exp(value.entropy)


class TestEntropyGradient:
    def test_zero_row_rejected(self):
        vectors = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        with pytest.raises(DegenerateVector):
            entropy_gradient(ContextBatch(vectors))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            entropy_gradient(ContextBatch(np.ones((1, 4))))

    def test_identical_pair_is_stationary(self):
        vectors = np.tile(np.array([0.3, -1.2, 0.5, 2.0]), (2, 1))
        grad = entropy_gradient(ContextBatch(vectors))
        assert np.max(np.abs(grad)) <= 1e-12
        fd = fd_entropy_gradient(vectors, 1e-6)
        assert np.max(np.abs(fd)) <= 1e-4  # fd noise at a flat clamped point

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            vectors = rng.standard_normal((4, 16))
            grad = entropy_gradient(ContextBatch(vectors))
            fd = fd_entropy_gradient(vectors, 1e-5)
            rel = np.max(np.abs(fd - grad)) / np.max(np.abs(grad))
            assert rel <= 1e-5

    def test_radial_component_vanishes(self):
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((5, 12))
        grad = entropy_gradient(ContextBatch(vectors))
        for g, c in zip(grad, vectors):
            bound = 1e-8 * np.linalg.norm(g) * np.linalg.norm(c)
            assert abs(float(g @ c)) <= max(bound, 1e-15)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(9)
        vectors = rng.standard_normal((4, 6))
        scales = rng.uniform(0.5, 3.0, size=4)
        base = entropy_and_score(cosine_kernel(ContextBatch(vectors)))
        scaled = entropy_and_score(cosine_kernel(ContextBatch(vectors * scales[:, None])))
        assert abs(base.entropy - scaled.entropy) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 10), dim=st.integers(1, 5))
    def test_shared_unit_rows_match_cosine_kernel_bitwise(self, seed, batch, dim):
        # the oracle validates both kernels as SymMatrix and takes canonical
        # eigenvector signs; the gradient skips both and must not move a bit
        vectors = random_points(seed, batch, dim, 3.0)
        got = entropy_gradient(ContextBatch(vectors))
        assert np.array_equal(got, entropy_gradient_with(vectors, eigh))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(2, 16),
        dim=st.integers(1, 20),
        spread=st.sampled_from([1e-3, 1.0, 3.0]),
    )
    def test_eigenvector_signs_cannot_move_dl_dk(self, seed, batch, dim, spread):
        # negating column k of U negates both factors of u_k f'_k u_k^T, and
        # negation is exact, so (U * f') @ U^T is the same to the bit
        vectors = random_points(seed, batch, dim, spread) + 1.0
        kernel = cosine_kernel(ContextBatch(vectors)).entries / batch
        dec = eigh(SymMatrix(kernel))
        f_prime = -(np.log(np.maximum(dec.eigenvalues, EIGENVALUE_FLOOR)) + 1.0)
        u = dec.eigenvectors
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=batch)
        flipped = u * signs
        assert np.array_equal((flipped * f_prime) @ flipped.T, (u * f_prime) @ u.T)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.integers(1, 5),
        batch=st.integers(2, 12),
        dim=st.integers(1, 20),
    )
    def test_stacked_batches_match_solo_calls_bitwise(self, seed, stack, batch, dim):
        # one stacked LAPACK call and leading-axis reductions, per batch the
        # bits of a solo call; duplicates give rank-deficient kernels too
        batches = np.stack([random_points(seed + s, batch, dim, 3.0) for s in range(stack)])
        got = entropy_gradient(ContextBatch(batches))
        assert got.shape == batches.shape
        for s in range(stack):
            assert np.array_equal(got[s], entropy_gradient(ContextBatch(batches[s])))

    def test_zero_row_in_one_stacked_batch_rejected(self):
        batches = np.random.default_rng(3).standard_normal((3, 4, 5))
        batches[1, 2] = 0.0
        with pytest.raises(DegenerateVector, match="zero-norm"):
            entropy_gradient(ContextBatch(batches[1]))
        with pytest.raises(DegenerateVector, match="zero-norm"):
            entropy_gradient(ContextBatch(batches))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 12), extra=st.integers(0, 12))
    def test_matches_jacobi_eigenpair_reference(self, seed, batch, extra):
        vectors = np.random.default_rng(seed).standard_normal((batch, batch + extra))
        lam = np.linalg.eigvalsh(cosine_kernel(ContextBatch(vectors)).entries / batch)
        assume(lam[0] >= 1e-6 and float(np.min(np.diff(lam))) >= 1e-6)
        got = entropy_gradient(ContextBatch(vectors))
        reference = entropy_gradient_with(vectors, jacobi_eigh)
        assert np.max(np.abs(got - reference)) <= 1e-8 * np.max(np.abs(reference))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 10), dim=st.integers(2, 20))
    def test_rotation_equivariance(self, seed, batch, dim):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((batch, dim))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        grad = entropy_gradient(ContextBatch(vectors))
        rotated = entropy_gradient(ContextBatch(vectors @ q))
        assert np.max(np.abs(rotated - grad @ q)) <= 1e-9 * max(np.max(np.abs(grad)), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 10), dim=st.integers(2, 20))
    def test_permutation_equivariance(self, seed, batch, dim):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((batch, dim))
        perm = rng.permutation(batch)
        grad = entropy_gradient(ContextBatch(vectors))
        permuted = entropy_gradient(ContextBatch(vectors[perm]))
        assert np.max(np.abs(permuted - grad[perm])) <= 1e-9 * max(np.max(np.abs(grad)), 1.0)

    def test_lapack_failure_is_nonconvergence(self, monkeypatch):
        def failing(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NonConvergence):
            entropy_gradient(ContextBatch(np.eye(3)))

    def test_ascent_property(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            vectors = rng.standard_normal((5, 10))
            grad = entropy_gradient(ContextBatch(vectors))
            largest = np.max(np.linalg.norm(grad, axis=1))
            if largest <= 1e-8:
                continue
            step = 1e-4 / largest
            before = entropy_of_vectors(vectors)
            after = entropy_of_vectors(vectors + step * grad)
            assert after >= before - 1e-12


class TestAveragePairVendi:
    def test_identical_batch(self):
        batch = ContextBatch(np.tile([1.0, 1.0], (4, 1)))
        assert average_pair_vendi(batch) == 1.0

    def test_orthogonal_triple(self):
        assert abs(average_pair_vendi(ContextBatch(np.eye(3))) - 2.0) <= 1e-9

    def test_half_cosine_triple(self):
        vectors = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.5, np.sqrt(3.0) / 2.0, 0.0],
                [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0],
            ]
        )
        value = average_pair_vendi(ContextBatch(vectors))
        assert abs(value - 1.75477) <= 1e-4

    def test_rbf_requires_bandwidth(self):
        batch = ContextBatch(np.eye(3))
        with pytest.raises(ValueError, match="bandwidth"):
            average_pair_vendi(batch, "rbf")

    def test_value_range(self):
        rng = np.random.default_rng(3)
        batch = ContextBatch(rng.standard_normal((6, 4)))
        value = average_pair_vendi(batch)
        assert 1.0 <= value <= 2.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(2, 24),
        dim=st.integers(1, 6),
        spread=st.sampled_from([1e-3, 0.3, 1.0, 5.0]),
    )
    def test_closed_form_matches_pair_loop(self, seed, batch, dim, spread):
        points = ContextBatch(random_points(seed, batch, dim, spread) + 1.0)
        cosine = average_pair_vendi(points)
        assert abs(cosine - average_pair_vendi_loop(points)) <= 1e-12
        rbf = average_pair_vendi(points, "rbf", bandwidth=0.7)
        assert abs(rbf - average_pair_vendi_loop(points, "rbf", bandwidth=0.7)) <= 1e-12

    @pytest.mark.parametrize("kind", ["cosine", "rbf"])
    def test_identical_rows_exactly_one(self, kind):
        batch = ContextBatch(np.tile([0.3, -2.0, 1.7], (6, 1)))
        assert average_pair_vendi(batch, kind, bandwidth=1.0) == 1.0
