import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import diagonal_split, random_sdd, random_spd, reference_split_scalar, same_bits
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
from seriesinv import matrix_core, splitting
from seriesinv.matrix_core import subtract_from_identity
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
        # both are symmetric bit for bit, so they take the short cut past
        # the tolerance test, but not past the overflow guard
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error, not numpy's overflow warning
            for x in (a, np.stack([np.eye(len(a)), a])):
                with pytest.raises(ValueError, match="entries must be finite"):
                    split_scalar(x)

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

    @pytest.mark.parametrize("bad, kind, message", [
        (np.zeros((2, 2)), NotSPDError, "matrix is not positive definite"),
        (1e-322 * np.eye(3), ValueError, "S^-1 overflows: matrix entries must be finite"),
    ], ids=["zero", "subnormal"])
    def test_only_a_given_eps_is_named(self, bad, kind, message):
        # The default eps 1e-3 ||A||_inf underflows to 0 here; the matrix
        # then fails on its own account, and only an eps passed in is named.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (bad, np.stack([np.eye(len(bad)), bad])):
                with pytest.raises(ValueError) as exc:
                    split_scalar(a)
                assert type(exc.value) is kind
                assert str(exc.value) == message
                with pytest.raises(ValueError) as exc:
                    split_scalar(a, 0.0)
                assert str(exc.value) == "eps must be positive and finite, got 0.0"

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
        stack = np.stack([np.eye(3), np.eye(3)])
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
                Splitting(matrix=np.ones((2, 1, 1)), alpha=np.array([1.0, 1e-320]))

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
                for x in (a, np.stack([s, a])):
                    try:
                        split_scalar(x)
                        rejected = False
                    except ValueError as exc:
                        assert str(exc) == "matrix must be symmetric"
                        rejected = True
                    assert rejected == expected, (t / t0, scale, x.ndim)
        assert decisions == {True, False}


class TestExactSymmetry:
    """An A equal to its transpose bit for bit is taken as is, with no
    tolerance test; any other A is tested and symmetrized as (A + A^T) / 2."""

    def test_exactly_symmetric_input_is_taken_as_is(self, monkeypatch):
        r = np.random.default_rng(0)
        a = np.array(random_spd(6, r))
        stack = np.stack([a, 3.0 * a, np.array(random_spd(6, r))])

        def untaken(x):
            raise AssertionError("the tolerance test ran")

        monkeypatch.setattr(splitting, "fro_norms", untaken)
        for x in (a, stack):
            assert _same_bits(x, x.swapaxes(-1, -2))
            assert _same_bits(split_scalar(x).matrix, x)

    def test_signed_zeros_are_symmetrized(self):
        # 0 and -0 compare equal but differ in their bits; (0 + -0) / 2 is 0
        a = np.array([[2.0, 0.0, 1.0], [-0.0, 2.0, 0.5], [1.0, 0.5, 2.0]])
        for x in (a, np.stack([np.eye(3), a])):
            m = split_scalar(x).matrix
            assert _same_bits(m, (x + x.swapaxes(-1, -2)) / 2.0)
            assert not np.signbit(m).any()

    def test_one_ulp_asymmetry_splits_as_its_symmetrization(self):
        r = np.random.default_rng(1)
        s = np.array(random_spd(6, r))
        a = s.copy()
        a[1, 4] = np.nextafter(a[1, 4], np.inf)
        sym = (a + a.T) / 2.0
        assert not _same_bits(sym, a)
        for x, want in ((a, sym), (np.stack([s, a, s]), np.stack([s, sym, s]))):
            got, ref = split_scalar(x), split_scalar(want)
            for name in ("matrix", "alpha", "precond", "residual"):
                assert _same_bits(getattr(got, name), getattr(ref, name)), name


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


def _drawn_matrix(kind, n, rng):
    """A matrix of one kind the split must take or reject as its reference
    does: most of them SPD but for one change."""
    a = np.array(random_spd(n, rng))
    i, j = rng.integers(n, size=2)
    if rng.integers(2):
        j = i if kind == "near-overflow" else (i + 1) % n
    if kind == "one-ulp":
        a[i, j] = np.nextafter(a[i, j], rng.choice([-np.inf, np.inf]))
    elif kind == "signed-zero":
        a[i, j], a[j, i] = rng.choice([0.0, -0.0], size=2)
    elif kind == "near-overflow":
        # one entry, or a symmetric pair, within an ulp of 2**1023 / n
        a *= rng.choice([1.0, 2.0**1000 / n])
        big = 2.0**1023 / n
        a[i, j] = a[j, i] = rng.choice([np.nextafter(big, 0.0), big, np.nextafter(big, np.inf)])
    elif kind == "subnormal":
        if rng.integers(2):
            a *= rng.choice([2.0**-1060, 2.0**-1070, 2.0**-1074])
        else:
            a[i, j] = a[j, i] = rng.integers(1, 4) * 5e-324
    elif kind == "non-finite":
        a[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "indefinite":
        a[i, i] = -a[i, i]
    elif kind == "zero":
        a = rng.choice([0.0, -0.0], size=(n, n))
    return a


_DRAWN_KINDS = ["spd", "one-ulp", "signed-zero", "near-overflow", "subnormal",
                "non-finite", "indefinite", "zero"]


def _split_outcome(split, a, eps):
    """The four arrays of a splitting, or the error (warnings included)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sp = split(a, eps)
    except (ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return sp.matrix, sp.alpha, sp.precond, sp.residual


@settings(max_examples=500, deadline=None)
@given(
    kind=st.sampled_from(_DRAWN_KINDS),
    n=st.integers(1, 64),
    k=st.integers(0, 3),
    where=st.integers(0, 3),
    eps=st.none() | st.sampled_from([1e-6, 0.3, 5e-324, 1.7e308, 0.0, np.nan]),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_matches_its_reference(kind, n, k, where, eps, seed):
    # alone (k == 0), or as one instance of a stack of k + 1 SPD matrices:
    # the same bits, or the same error, as the reference split
    rng = np.random.default_rng(seed)
    a = _drawn_matrix(kind, n, rng)
    if k:
        a = np.stack([random_spd(n, rng) for _ in range(k)] + [a])
        a[[where % (k + 1), k]] = a[[k, where % (k + 1)]]
    got = _split_outcome(split_scalar, a, eps)
    want = _split_outcome(reference_split_scalar, a, eps)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert len(got) == 4 and all(map(same_bits, got, want))


class TestCleanInput:
    """A clean A (finite, equal to its transpose bit for bit, every entry
    below 2**1023 / n) is split without the full checks."""

    def test_only_an_unclean_input_takes_the_full_checks(self, monkeypatch):
        full, checked = splitting._symmetrized, []

        def recording(*args):
            checked.append(args[0].shape)
            return full(*args)

        def untaken(*args):
            raise AssertionError("square_matrix ran")

        r = np.random.default_rng(3)
        a = np.array(random_spd(6, r))
        stack = np.stack([a, np.array(random_spd(6, r))])
        monkeypatch.setattr(splitting, "_symmetrized", recording)
        monkeypatch.setattr(splitting, "square_matrix", untaken)
        monkeypatch.setattr(matrix_core, "square_matrix", untaken)
        for x in (a, stack):
            for eps in (None, 0.3):
                split_scalar(x, eps)
        assert checked == []
        skewed = a.copy()
        skewed[0, 3] = np.nextafter(skewed[0, 3], np.inf)
        huge = 2.0**1023 / 6 * np.eye(6)
        nan = a.copy()
        nan[2, 2] = np.nan
        for x in (skewed, np.stack([a, skewed]), huge, nan):
            with np.errstate(over="ignore"):
                try:
                    split_scalar(x)
                except ValueError:
                    pass
        assert checked == [(6, 6), (2, 6, 6), (6, 6), (6, 6)]


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
