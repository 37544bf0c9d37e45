import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import diagonal_split, random_sdd, random_spd
from seriesinv import (
    NotSPDError,
    Splitting,
    fro_norm,
    inf_norm,
    is_positive_definite,
    spectral_radius,
    split_scalar,
    square_matrix,
)
from seriesinv.matrix_core import square_stack, subtract_from_identity
from seriesinv.splitting import _passes_cholesky


class TestDiagonalSplit:
    def test_diagonal_matrix_splits_exactly(self):
        sp = diagonal_split(square_matrix(np.diag([4.0, 9.0])))
        assert np.array_equal(sp.residual, np.zeros((2, 2)))
        assert np.allclose(sp.precond, np.diag([0.25, 1.0 / 9.0]), rtol=1e-15)

    def test_two_by_two(self):
        sp = diagonal_split(square_matrix([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(sp.residual, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-15)
        assert spectral_radius(sp.residual) == pytest.approx(0.5, rel=1e-9)

    def test_asymmetry_rejected(self):
        # Splitting takes A as given; split_scalar checks its symmetry.
        with pytest.raises(ValueError, match="matrix must be symmetric"):
            split_scalar(square_matrix([[3.0, 1.0], [0.0, 3.0]]))


# Symmetric and SPD, (A + A^T) / 2 finite, ||A||_inf = 2.2e308 overflows.
_HUGE3 = [[8e307, 7e307, 7e307], [7e307, 8e307, 7e307], [7e307, 7e307, 8e307]]


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error, not numpy's overflow warning
            with pytest.raises(ValueError, match="entries must be finite"):
                split_scalar(a)

    @pytest.mark.parametrize("eps", [None, 1.0])
    def test_overflowing_norm_rejected(self, eps):
        # (A + A^T) / 2 is finite, ||A||_inf = 2.2e308 is not (n = 2 cannot
        # overflow once (A + A^T) / 2 is finite); eps plays no part.
        huge = np.array(_HUGE3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error, not numpy's overflow warning
            for a in (huge, np.stack([np.eye(3), huge])):
                with pytest.raises(ValueError) as exc:
                    split_scalar(a, eps)
                assert type(exc.value) is ValueError
                assert str(exc.value) == "matrix entries too large: ||A||_inf overflows"

    def test_overflowing_alpha_names_eps(self):
        # ||A||_inf / 2 + eps overflows: one error naming eps, not numpy's
        # warning followed by the constructor's message about alpha
        big = 5e307 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (big, np.stack([np.eye(2), big, np.eye(2)])):
                with pytest.raises(ValueError) as exc:
                    split_scalar(a, eps=1.7e308)
                assert str(exc.value) == (
                    "eps too large: ||A||_inf / 2 + eps overflows, got 1.7e+308"
                )
            # the same eps with a small norm: alpha = 1.7e308 is finite
            assert split_scalar(np.eye(2), eps=1.7e308).alpha == 0.5 + 1.7e308

    def test_large_finite_norm_splits(self):
        # max|A| is past 2**1023 / n, but (A + A^T) / 2 and ||A||_inf are
        # finite: the splitting is that of A scaled down by the power of two.
        m = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = split_scalar(2.0**1020 * m)
        one = split_scalar(m)
        assert _same_bits(big.residual, one.residual)
        assert _same_bits(big.precond, 2.0**-1020 * one.precond)

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
        for sp in (diagonal_split(a), split_scalar(a)):
            resid = np.eye(4) - sp.precond @ sp.matrix
            err = fro_norm(resid - sp.residual)
            assert err <= 1e-12 * fro_norm(sp.residual) + 1e-14


def _same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestSplittingConstructor:
    # The scale of S = alpha I: one positive, finite alpha per matrix.
    @pytest.mark.parametrize("alpha", [
        [1.0, 0.0],
        [1.0, -2.0],
        [1.0, np.nan],
        [1.0, np.inf],
        [1.0],
        [1.0, 1.0, 1.0],
        [[1.0, 1.0]],
        np.ones((2, 3)),
    ], ids=["zero", "negative", "nan", "inf", "short", "long", "row", "square"])
    def test_rejects_bad_scale(self, alpha):
        stack = square_stack(np.stack([np.eye(3), np.eye(3)]))
        with pytest.raises(ValueError, match="alpha must hold"):
            Splitting(matrix=stack, alpha=np.array(alpha))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf, [1.0], [[1.0]], np.ones(3)])
    def test_one_matrix_takes_a_0d_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must hold"):
            Splitting(matrix=square_matrix(np.eye(3)), alpha=np.array(alpha))

    def test_rejects_scale_whose_inverse_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raises the error, warns nothing
            with pytest.raises(ValueError, match="entries must be finite"):
                Splitting(matrix=square_matrix(np.eye(2)), alpha=1e-320)
            with pytest.raises(ValueError, match="entries must be finite"):
                Splitting(matrix=square_stack(np.ones((2, 1, 1))), alpha=np.array([1.0, 1e-320]))

    def test_inverse_overflow_threshold_is_exact(self):
        # every alpha near 2**-1024 is accepted exactly when 1 / alpha is finite
        alphas = 2.0**-1024 + np.arange(-300, 301) * 2.0**-1074
        with np.errstate(over="ignore"):
            finite = np.isfinite(1.0 / alphas)
        assert finite.any() and not finite.all()
        for alpha, ok in zip(alphas, finite):
            try:
                Splitting(matrix=square_matrix(np.eye(1)), alpha=alpha)
            except ValueError as exc:
                assert not ok and str(exc) == "S^-1 overflows: matrix entries must be finite"
            else:
                assert ok

    def test_derived_arrays_read_only(self, rng):
        a = random_spd(4, rng)
        alpha = np.array(2.0)
        sp = Splitting(matrix=a, alpha=alpha)
        for arr in (sp.precond, sp.residual, sp.alpha):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0
        alpha[()] = 5.0
        assert sp.alpha == 2.0 and sp.precond[0, 0] == 0.5

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
        assert _same_bits(sp.precond, np.eye(dim) / alpha)
        assert _same_bits(sp.residual, subtract_from_identity(sp.matrix / alpha))
        assert sp.alpha.shape == () and sp.alpha == alpha

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 5, 8, 17])
    def test_diagonal_split_matches_old_formulas(self, seed, dim):
        sp = diagonal_split(random_sdd(dim, np.random.default_rng(seed)))
        d = np.diag(sp.matrix)
        assert _same_bits(sp.precond, np.diag(1.0 / d))
        assert _same_bits(sp.residual, subtract_from_identity(sp.matrix / d[:, None]))
        for arr in (sp.precond, sp.residual):
            assert not arr.flags.writeable


def _old_symmetry_test_rejects(a):
    """The unscaled symmetry test the scaled one replaced."""
    return fro_norm(a - a.T) > 1e-10 * max(fro_norm(a), 1e-300)


class TestSymmetryCheck:
    @pytest.mark.parametrize("a", [
        [[4e200, 3e200], [1e200, 4e200]],  # ||A||_F overflows
        [[4e-200, 3e-200], [1e-200, 4e-200]],  # ||A - A^T||_F underflows to 0
    ], ids=["huge", "tiny"])
    def test_asymmetry_rejected_at_any_scale(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning
            with pytest.raises(ValueError, match="matrix must be symmetric"):
                split_scalar(a)
            with pytest.raises(ValueError, match="matrix must be symmetric"):
                split_scalar(np.stack([np.eye(2), a]))

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_symmetric_matrix_splits_at_any_scale(self, scale):
        a = scale * np.array([[4.0, 1.0], [1.0, 4.0]])
        sp = split_scalar(a)
        assert np.array_equal(sp.matrix, a)

    @pytest.mark.parametrize("seed", range(4))
    def test_decides_as_the_unscaled_test(self, seed):
        # The scaling by a power of two is exact, so near the tolerance the
        # decision is the unscaled test's, not a rounding away from it.
        r = np.random.default_rng(seed)
        dim = 2 + seed
        s = np.asarray(random_spd(dim, r))
        k = r.standard_normal((dim, dim))
        t0 = 1e-10 * fro_norm(s) / fro_norm(k - k.T)
        decisions = set()
        for t in t0 * np.linspace(1.0 - 1e-3, 1.0 + 1e-3, 101):
            for scale in (2.0**-40, 1.0, 3.0, 2.0**40):
                a = scale * (s + t * k)
                expected = _old_symmetry_test_rejects(a)
                decisions.add(expected)
                try:
                    split_scalar(a)
                    rejected = False
                except ValueError as exc:
                    assert str(exc) == "matrix must be symmetric"
                    rejected = True
                assert rejected == expected, (t / t0, scale)
        assert decisions == {True, False}


def _spd_stack(k, n, rng):
    """k SPD matrices of varied scale, each off symmetric by rounding noise."""
    mats = [float(10.0 ** rng.integers(-3, 4)) * random_spd(n, rng) for _ in range(k)]
    noise = 1e-14 * rng.standard_normal((k, n, n)) * np.stack(mats)
    return np.stack(mats) + noise


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, 4),
    n=st.integers(1, 12),
    eps=st.none() | st.floats(1e-9, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_is_bitwise_symmetric(k, n, eps, seed):
    # k == 0 is one matrix; the inputs are off symmetric by rounding noise.
    stack = _spd_stack(max(k, 1), n, np.random.default_rng(seed))
    sp = split_scalar(stack if k else stack[0], eps)
    assert _same_bits(sp.residual, sp.residual.swapaxes(-1, -2))
    for i in np.ndindex(sp.alpha.shape):
        norm = inf_norm(sp.matrix[i])
        assert sp.alpha[i] == norm / 2.0 + (1e-3 * norm if eps is None else eps)


class TestStackedSplit:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_each_instance_equals_its_own_split(self, n):
        r = np.random.default_rng(n)
        for k in range(1, 8):
            stack = _spd_stack(k, n, r)
            for eps in (None, 0.05):
                sp = split_scalar(stack, eps)
                assert sp.alpha.shape == (k,)
                for arr in (sp.matrix, sp.precond, sp.residual):
                    assert arr.shape == (k, n, n)
                for i in range(k):
                    one = split_scalar(stack[i], eps)
                    for name in ("matrix", "alpha", "precond", "residual"):
                        assert _same_bits(getattr(sp, name)[i], getattr(one, name)), (k, i, name)

    @pytest.mark.parametrize("bad", [
        [[3.0, 1.0], [0.0, 3.0]],
        [[4e200, 3e200], [1e200, 4e200]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-16]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.5e308, 1e308], [1e308, 1.5e308]],
        1e-320 * np.eye(2),
        np.zeros((2, 2)),
    ], ids=["asymmetric", "asymmetric-huge", "indefinite", "near-singular", "nan",
            "sum-overflows", "inverse-overflows", "zero"])
    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("eps", [None, 0.05, 0.0])
    def test_one_bad_instance_fails_as_it_would_alone(self, bad, where, eps):
        stack = _spd_stack(5, 2, np.random.default_rng(where))
        stack[where] = bad

        def outcome(a):
            try:
                with np.errstate(all="ignore"):
                    split_scalar(a, eps)
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        alone = outcome(bad)
        # 1e-320 I with eps = 0.05 is a valid splitting; all else fails.
        assert alone is not None or (eps == 0.05 and bad[0][0] == 1e-320)
        assert outcome(stack) == alone

    def test_outputs_read_only_and_input_untouched(self, rng):
        stack = _spd_stack(3, 4, rng)
        before = stack.tobytes()
        sp = split_scalar(stack)
        assert stack.tobytes() == before
        for arr in (sp.matrix, sp.alpha, sp.precond, sp.residual):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, stack)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 3, 4), (2, 2, 3, 3)])
    def test_rejects_non_square_stacks(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {shape}")):
            split_scalar(np.ones(shape))

    def test_two_d_entry_points_reject_a_stack(self, rng):
        stack = _spd_stack(2, 3, rng)
        message = re.escape("expected a square matrix, got shape (2, 3, 3)")
        with pytest.raises(ValueError, match=message):
            square_matrix(stack)
        with pytest.raises(ValueError, match=message):
            is_positive_definite(stack)


class TestContractionProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_sdd_diagonal_split_contracts(self, seed):
        r = np.random.default_rng(seed)
        a = random_sdd(5, r, margin=0.1 + 0.5 * r.uniform())
        assert spectral_radius(diagonal_split(a).residual) < 1.0

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("eps_scale", [1e-6, 1e-3, 0.1])
    def test_spd_scalar_split_contracts(self, seed, eps_scale):
        r = np.random.default_rng(seed)
        a = random_spd(5, r)
        sp = split_scalar(a, eps=eps_scale * inf_norm(a))
        assert spectral_radius(sp.residual) < 1.0


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


# Exact pivots at and near zero: a PD matrix with a tiny pivot, indefinite,
# singular and near-singular ones.
_PIVOT_EDGE_CASES = [
    np.eye(3),
    np.diag([1.0, 1e-300, 2.0]),
    [[1.0, 2.0], [2.0, 1.0]],
    [[1.0, 1.0], [1.0, 1.0 + 1e-16]],
    np.zeros((2, 2)),
    [[2.0, -1.0], [-1.0, 2.0]],
]


class TestPositiveDefinite:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_python_cholesky(self, seed):
        r = np.random.default_rng(seed)
        dim = 1 + seed
        cases = [square_matrix(a) for a in _PIVOT_EDGE_CASES]
        cases += [random_spd(dim, r), random_spd(dim, r, shift=1e-6)]
        if dim >= 2:
            # indefinite, and near-singular at several distances from the
            # default pivot tolerance of 1e-12 * ||A||_inf
            cases.append(_with_spectrum([-0.5] + [1.0] * (dim - 1), r))
            for small in (0.0, 1e-16, 1e-14, 1e-11, 1e-8):
                cases.append(_with_spectrum(np.r_[small, r.uniform(0.5, 2.0, dim - 1)], r))
        for a in cases:
            assert is_positive_definite(a) == cholesky_loop_is_pd(a)

    @pytest.mark.parametrize("a", _PIVOT_EDGE_CASES)
    def test_agrees_with_python_cholesky_at_zero_tolerance(self, a):
        # A zero norm makes the pivot tolerance zero.
        a = square_matrix(a)
        assert _passes_cholesky(a, 0.0) == cholesky_loop_is_pd(a, 0.0)

    def test_basic(self):
        assert is_positive_definite(np.eye(3))
        assert not is_positive_definite(square_matrix([[1.0, 2.0], [2.0, 1.0]]))
        assert not is_positive_definite(np.zeros((2, 2)))

    @pytest.mark.parametrize("a", [_HUGE3, [[1.5e308, 1e308], [1e308, 1.5e308]]],
                             ids=["norm-overflows", "sum-overflows"])
    def test_overflow_is_not_pd_and_warns_nothing(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_positive_definite(a) is False

    def test_near_singular_counts_as_failure(self):
        a = square_matrix([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        assert not is_positive_definite(a)
