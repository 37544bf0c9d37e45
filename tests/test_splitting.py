import warnings

import numpy as np
import pytest

from corpus import random_sdd, random_spd
from seriesinv import (
    NotSDDError,
    NotSPDError,
    Splitting,
    check_two_s_minus_a,
    fro_norm,
    identity,
    inf_norm,
    is_positive_definite,
    spectral_radius,
    split_diagonal,
    split_scalar,
    square_matrix,
)
from seriesinv.matrix_core import subtract_from_identity


class TestDiagonalSplit:
    def test_diagonal_matrix_splits_exactly(self):
        sp = split_diagonal(square_matrix(np.diag([4.0, 9.0])))
        assert np.array_equal(sp.residual, np.zeros((2, 2)))
        assert np.allclose(sp.precond, np.diag([0.25, 1.0 / 9.0]), rtol=1e-15)

    def test_two_by_two(self):
        sp = split_diagonal(square_matrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(sp.residual, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-15)
        assert spectral_radius(sp.residual) == pytest.approx(0.5, rel=1e-9)

    def test_dominance_violation(self):
        with pytest.raises(NotSDDError):
            split_diagonal(square_matrix([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_diagonal(self):
        with pytest.raises(NotSDDError):
            split_diagonal(square_matrix([[-3.0, 1.0], [1.0, 3.0]]))

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            split_diagonal(square_matrix([[3.0, 1.0], [0.0, 3.0]]))


class TestScalarSplit:
    def test_identity_matrix(self):
        # alpha = ||I||inf / 2 + eps = 0.5 + eps
        sp = split_scalar(np.eye(2), eps=1.0)
        assert np.allclose(sp.precond, np.eye(2) / 1.5, rtol=1e-15)
        assert np.allclose(sp.residual, np.eye(2) / 3.0, rtol=1e-14)
        sp0 = split_scalar(np.eye(2), eps=0.5)
        assert np.allclose(sp0.residual, np.zeros((2, 2)), atol=1e-15)

    def test_two_by_two_radius(self):
        a = square_matrix([[2.0, 1.0], [1.0, 2.0]])
        sp = split_scalar(a, eps=0.1)
        # alpha = 3/2 + 0.1; eigenvalues of A are 1 and 3
        alpha = 1.6
        expected = max(abs(1.0 - 1.0 / alpha), abs(1.0 - 3.0 / alpha))
        assert spectral_radius(sp.residual) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.875)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            split_scalar(np.eye(2), eps=0.0)
        with pytest.raises(ValueError):
            split_scalar(np.eye(2), eps=-1.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            split_scalar(np.eye(2), eps=eps)

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPDError):
            split_scalar(square_matrix([[1.0, 2.0], [2.0, 1.0]]), eps=0.1)

    def test_outputs_read_only_and_input_untouched(self, rng):
        a = np.array(random_spd(4, rng))
        before = a.tobytes()
        sp = split_scalar(a)
        assert a.tobytes() == before
        for arr in (sp.precond, sp.residual, sp.matrix):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, a)

    @pytest.mark.parametrize("a", [
        1e-320 * np.eye(3),  # SPD, but 1 / alpha overflows
        np.array([[1.5e308, 1e308], [1e308, 1.5e308]]),  # a + a.T overflows
    ], ids=["tiny", "huge"])
    def test_non_finite_results_rejected(self, a):
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="entries must be finite"):
                split_scalar(a)

    def test_default_eps(self, rng):
        a = random_spd(4, rng)
        sp = split_scalar(a)
        alpha = inf_norm(a) / 2.0 + 1e-3 * inf_norm(a)
        assert sp.precond[0, 0] == pytest.approx(1.0 / alpha, rel=1e-14)


class TestConstructionInvariant:
    @pytest.mark.parametrize("seed", range(8))
    def test_identity_holds(self, seed):
        r = np.random.default_rng(seed)
        a = random_sdd(4, r)
        for sp in (split_diagonal(a), split_scalar(a)):
            resid = identity(4) - sp.precond @ sp.matrix
            err = fro_norm(resid - sp.residual)
            assert err <= 1e-12 * fro_norm(sp.residual) + 1e-14


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestSplittingConstructor:
    @pytest.mark.parametrize("scale", [
        [1.0, 0.0, 1.0],
        [1.0, -2.0, 1.0],
        [1.0, np.nan, 1.0],
        [1.0, np.inf, 1.0],
        [1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
        [[1.0, 1.0, 1.0]],
        np.ones((3, 3)),
    ], ids=["zero", "negative", "nan", "inf", "short", "long", "row", "square"])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="scale must hold"):
            Splitting(matrix=square_matrix(np.eye(3)), scale=np.array(scale), kind="test")

    def test_rejects_scale_whose_inverse_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raises the error, warns nothing
            with pytest.raises(ValueError, match="entries must be finite"):
                Splitting(matrix=square_matrix(np.eye(2)), scale=np.full(2, 1e-320), kind="test")

    def test_derived_arrays_read_only(self, rng):
        a = random_spd(4, rng)
        scale = np.linspace(2.0, 3.0, 4)
        sp = Splitting(matrix=a, scale=scale, kind="test")
        for arr in (sp.precond, sp.residual, sp.scale):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        scale[0] = 5.0
        assert sp.scale[0] == 2.0 and sp.precond[0, 0] == 0.5

    def test_equality_and_hash_by_identity(self, rng):
        a = random_spd(4, rng)
        sp, other = split_scalar(a), split_scalar(a)
        assert sp == sp and hash(sp) == hash(sp)
        assert sp != other
        runs = {sp: "first", other: "second"}
        assert runs[sp] == "first" and runs[other] == "second"

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 17])
    def test_scalar_split_matches_old_formulas(self, seed, dim):
        r = np.random.default_rng(seed)
        eps = [None, 1e-6, 0.3][seed % 3]
        sp = split_scalar(random_spd(dim, r, shift=[0.5, 1e-6][seed % 2]), eps)
        norm = inf_norm(sp.matrix)
        alpha = norm / 2.0 + (1e-3 * norm if eps is None else eps)
        assert _same_bits(sp.precond, identity(dim) / alpha)
        assert _same_bits(sp.residual, subtract_from_identity(sp.matrix / alpha))
        assert np.array_equal(sp.scale, np.full(dim, alpha))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 5, 8, 17])
    def test_diagonal_split_matches_old_formulas(self, seed, dim):
        sp = split_diagonal(random_sdd(dim, np.random.default_rng(seed)))
        d = np.diag(sp.matrix)
        assert _same_bits(sp.precond, np.diag(1.0 / d))
        assert _same_bits(sp.residual, subtract_from_identity(sp.matrix / d[:, None]))
        assert np.array_equal(sp.scale, d)


class TestContractionProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_sdd_diagonal_split_contracts(self, seed):
        r = np.random.default_rng(seed)
        a = random_sdd(5, r, margin=0.1 + 0.5 * r.uniform())
        assert spectral_radius(split_diagonal(a).residual) < 1.0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("eps_scale", [1e-6, 1e-3, 0.1])
    def test_spd_scalar_split_contracts(self, seed, eps_scale):
        r = np.random.default_rng(seed)
        a = random_spd(5, r)
        sp = split_scalar(a, eps=eps_scale * inf_norm(a))
        assert spectral_radius(sp.residual) < 1.0


class TestTwoSMinusA:
    def test_identity_case(self):
        sp = split_diagonal(np.eye(3))
        assert check_two_s_minus_a(np.eye(3), sp) is True

    def test_two_by_two_case(self):
        a = square_matrix([[2.0, 1.0], [1.0, 2.0]])
        sp = split_diagonal(a)
        # 2S - A = [[2, -1], [-1, 2]], leading minors 2 and 3
        assert check_two_s_minus_a(a, sp) is True

    def test_failing_case(self):
        a = square_matrix([[4.0]])
        sp = Splitting(matrix=a, scale=np.ones(1), kind="diagonal")
        assert np.array_equal(sp.residual, [[-3.0]])
        assert check_two_s_minus_a(a, sp) is False

    @pytest.mark.parametrize("seed", range(10))
    def test_equivalent_to_contraction_for_spd(self, seed):
        r = np.random.default_rng(seed)
        a = random_spd(4, r)
        splits = [split_scalar(a), ]
        try:
            splits.append(split_diagonal(a))
        except (NotSDDError, ValueError):
            pass
        # an intentionally bad scalar preconditioner: S too small
        bad_alpha = float(np.min(np.linalg.eigvalsh(a))) / 4.0
        splits.append(Splitting(matrix=a, scale=np.full(4, bad_alpha), kind="scalar"))
        for sp in splits:
            rho = spectral_radius(sp.residual, tol=1e-10)
            if abs(rho - 1.0) <= 1e-6:
                continue
            assert check_two_s_minus_a(a, sp) == (rho < 1.0)


def cholesky_loop_is_pd(a, pivot_tol=None):
    """The plain Python Cholesky the LAPACK test replaced, kept as its
    oracle: a pivot at or below ``pivot_tol`` counts as failure."""
    a = (a + a.T) / 2.0
    n = a.shape[0]
    if pivot_tol is None:
        pivot_tol = 1e-12 * inf_norm(a)
    lower = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - np.dot(lower[j, :j], lower[j, :j])
        if d <= pivot_tol:
            return False
        lower[j, j] = np.sqrt(d)
        if j + 1 < n:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return True


def _with_spectrum(eigs, rng):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    a = (q * np.asarray(eigs)) @ q.T
    return square_matrix((a + a.T) / 2.0)


class TestPositiveDefinite:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_python_cholesky(self, seed):
        r = np.random.default_rng(seed)
        dim = 1 + seed
        cases = [random_spd(dim, r), random_spd(dim, r, shift=1e-6)]
        if dim >= 2:
            # indefinite, and near-singular at several distances from the
            # default pivot tolerance of 1e-12 * ||A||_inf
            cases.append(_with_spectrum([-0.5] + [1.0] * (dim - 1), r))
            for small in (0.0, 1e-16, 1e-14, 1e-11, 1e-8):
                cases.append(_with_spectrum(np.r_[small, r.uniform(0.5, 2.0, dim - 1)], r))
        for a in cases:
            assert is_positive_definite(a) == cholesky_loop_is_pd(a)

    @pytest.mark.parametrize(
        "a",
        [
            np.eye(3),
            np.diag([1.0, 1e-300, 2.0]),
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0 + 1e-16]],
            np.zeros((2, 2)),
            [[2.0, -1.0], [-1.0, 2.0]],
        ],
    )
    def test_agrees_with_python_cholesky_at_zero_tolerance(self, a):
        a = square_matrix(a)
        assert is_positive_definite(a, pivot_tol=0.0) == cholesky_loop_is_pd(a, 0.0)

    def test_basic(self):
        assert is_positive_definite(np.eye(3))
        assert not is_positive_definite(square_matrix([[1.0, 2.0], [2.0, 1.0]]))
        assert not is_positive_definite(np.zeros((2, 2)))

    def test_near_singular_counts_as_failure(self):
        a = square_matrix([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        assert not is_positive_definite(a)
