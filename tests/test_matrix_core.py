import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import mat_pow, power_iteration_oracle, random_spd, text_file_oracle
from seriesinv import (
    MulCounter,
    SpectralRadiusError,
    fro_norm,
    inf_norm,
    load_matrix,
    load_vector,
    mat_mul,
    save_matrix,
    save_vector,
    spectral_radius,
    square_matrix,
    vector,
)


def mat_mul_naive(a, b):
    """Independent triple-loop product oracle."""
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s = 0.0
            for k in range(n):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def _signed_zero_matrix(rng, n):
    """Random entries, about a third of them +0.0 or -0.0, with a column of
    +0.0 and a row of -0.0 (at n = 1 the one entry is -0.0)."""
    m = rng.standard_normal((n, n))
    zeros = rng.random((n, n)) < 0.35
    m[zeros] = np.copysign(0.0, rng.standard_normal((n, n)))[zeros]
    m[:, -1] = 0.0
    m[0] = -0.0
    return m


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            square_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ValueError, match="spectral_radius expects a square matrix"):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError, match="vector must have at least one entry"):
            vector([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            square_matrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            vector([np.inf, 1.0])

    def test_matrices_are_frozen(self):
        a = square_matrix([[1.0, 0.0], [0.0, 1.0]])
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 2.0


class TestMatMul:
    def test_identity(self, rng):
        m = square_matrix(rng.standard_normal((3, 3)))
        ctr = MulCounter()
        out = mat_mul(np.eye(3), m, ctr)
        assert np.array_equal(out, m)
        assert ctr.mmm == 1

    def test_diagonal(self):
        ctr = MulCounter()
        out = mat_mul(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]), ctr)
        assert np.array_equal(out, np.diag([10.0, 21.0]))

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        out = mat_mul(a, b, MulCounter())
        # entrywise dot products agree to rounding of a single summation
        assert np.allclose(out, mat_mul_naive(a, b), rtol=0, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(np.eye(2), np.eye(3), MulCounter())

    def test_counter_audit(self, rng):
        ctr = MulCounter()
        a = rng.standard_normal((3, 3))
        for _ in range(5):
            mat_mul(a, a, ctr)
        assert (ctr.mmm, ctr.mvm) == (5, 0)

    def test_stacked_product_counts_each_pair(self, rng):
        a = rng.standard_normal((5, 3, 3))
        b = rng.standard_normal((5, 3, 3))
        ctr = MulCounter()
        out = mat_mul(a, b, ctr)
        assert ctr.mmm == 5
        for i in range(5):
            assert np.array_equal(out[i], a[i] @ b[i])
        with pytest.raises(ValueError):
            mat_mul(a, rng.standard_normal((5, 4, 3)), MulCounter())

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 17, 64, 512])
    def test_2d_product_is_bitwise_matmul(self, n):
        # 2-D products run through ndarray.dot for 2 <= n <= DOT_MAX_DIM
        # and through @ otherwise: the bits of a @ b either way, signed
        # zeros included, on every layout
        rng = np.random.default_rng(n)
        m, p = (_signed_zero_matrix(rng, n) for _ in range(2))
        layouts = {
            "C": (m, p),
            "negated": (m, -p),
            "F": (np.asfortranarray(m), np.asfortranarray(p)),
            "transposed": (m.T, p.T),
            "mixed": (np.asfortranarray(m), p.T),
        }
        for name, (a, b) in layouts.items():
            ctr = MulCounter()
            got, want = mat_mul(a, b, ctr), a @ b
            assert ctr.mmm == 1
            assert np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name

    @pytest.mark.parametrize("n", [5, 17, 64])
    def test_views_outside_the_package_agree_to_rounding(self, rng, n):
        # ndarray.dot and @ may take another BLAS path on a stride-0
        # broadcast view and on x @ x.T for a non-contiguous x; the package
        # builds neither, and the two agree to rounding there
        m = rng.standard_normal((2 * n, 2 * n))
        x = m[::2, ::2]
        row = np.broadcast_to(m[0, :n], (n, n))
        for a, b in ((x, x.T), (x.T, x), (row, m[:n, :n]), (m[:n, :n], row.T)):
            got, want = mat_mul(a, b, MulCounter()), a @ b
            assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(a) @ np.abs(b)))


class TestMatPow:
    def test_zeroth_power_is_identity(self, rng):
        m = rng.standard_normal((3, 3))
        assert np.array_equal(mat_pow(m, 0), np.eye(3))

    def test_first_power(self, rng):
        m = rng.standard_normal((3, 3))
        assert np.array_equal(mat_pow(m, 1), m)

    def test_diagonal_powers(self):
        out = mat_pow(np.diag([0.5, 0.2]), 6)
        assert np.allclose(np.diag(out), [0.015625, 0.000064], rtol=1e-12)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(np.eye(2), -1)

    @pytest.mark.parametrize("e1,e2", [(0, 5), (1, 1), (7, 13), (31, 64), (64, 64)])
    def test_power_additivity(self, rng, e1, e2):
        m = rng.standard_normal((4, 4))
        m = 0.9 * m / np.linalg.norm(m, 2)
        lhs = mat_pow(m, e1 + e2)
        rhs = mat_mul(mat_pow(m, e1), mat_pow(m, e2), MulCounter())
        assert fro_norm(lhs - rhs) <= 1e-11 * max(fro_norm(lhs), 1e-300)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_mat_mul_associativity(dim, seed):
    r = np.random.default_rng(seed)
    a, b, c = (r.standard_normal((dim, dim)) for _ in range(3))
    ctr = MulCounter()
    left = mat_mul(mat_mul(a, b, ctr), c, ctr)
    right = mat_mul(a, mat_mul(b, c, ctr), ctr)
    bound = 1e-12 * fro_norm(a) * fro_norm(b) * fro_norm(c)
    assert fro_norm(left - right) <= bound


def test_counter_determinism(rng):
    a = rng.standard_normal((4, 4))

    def workload():
        ctr = MulCounter()
        m = mat_mul(a, a, ctr)
        mat_mul(m, m, ctr)
        return ctr.mmm, ctr.mvm

    assert workload() == workload()


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([0.9, 0.1])) == pytest.approx(0.9, rel=1e-10)

    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0, rel=1e-12)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_paired_opposite_eigenvalues(self):
        # eigenvalues +0.5 and -0.5: the norm-ratio iteration still settles
        b = np.array([[0.0, -0.5], [-0.5, 0.0]])
        assert spectral_radius(b) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_eigenvalue_oracle(self, seed):
        r = np.random.default_rng(seed)
        m = r.standard_normal((5, 5))
        sym = (m + m.T) / 2.0
        expected = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        assert spectral_radius(sym) == pytest.approx(expected, rel=1e-8)

    def test_non_convergence_carries_best_estimate(self):
        # complex dominant pair: the norm ratio oscillates forever
        m = np.array([[0.0, 2.0], [-0.5, 0.0]])
        with pytest.raises(SpectralRadiusError) as err:
            spectral_radius(m, max_iter=300)
        assert 0.0 < err.value.best_estimate <= 2.0


def _radius_or_cap(a, **kw):
    """``spectral_radius`` in the oracle's result form."""
    try:
        return spectral_radius(a, **kw)
    except SpectralRadiusError as err:
        return ("cap", err.best_estimate, str(err))


def _bits(result):
    """A result with each float as its bytes, so equality is bitwise."""
    if isinstance(result, tuple):
        return tuple(_bits(v) for v in result)
    return np.float64(result).tobytes() if isinstance(result, float) else result


class TestSpectralRadiusAgainstPlainLoop:
    """The buffered loop returns the plain ``a @ x`` loop's bits, and its
    ``best_estimate`` on the cap path, without writing its input."""

    def _check(self, a, **kw):
        before = a.copy()
        want = power_iteration_oracle(a, **kw)
        assert _bits(_radius_or_cap(a, **kw)) == _bits(want)
        assert a.tobytes() == before.tobytes()
        return want

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 6, 8, 13, 21, 34, 55, 64, 89, 100])
    def test_every_order_general_and_symmetric(self, dim):
        r = np.random.default_rng(dim)
        g = r.standard_normal((dim, dim))
        # general matrices mostly hit the cap; symmetric ones converge
        for m, max_iter in ((g, 300), ((g + g.T) / 2.0, 3000)):
            for a in (np.ascontiguousarray(m), np.asfortranarray(m), m.T):
                self._check(a, max_iter=max_iter)

    def test_other_views_run_on_a_c_ordered_copy(self, rng):
        # ndarray.dot runs these views as their C-ordered copies, which may
        # round differently from a @ x on the view itself
        m = rng.standard_normal((20, 20))
        sym = m + m.T
        for a in (m[::-1, ::-1], m[::-1], m[:, ::2][:10], sym[::-1, ::-1]):
            assert not (a.flags.c_contiguous or a.flags.f_contiguous)
            before = a.copy()
            want = power_iteration_oracle(np.ascontiguousarray(a), max_iter=300)
            assert _bits(_radius_or_cap(a, max_iter=300)) == _bits(want)
            assert a.tobytes() == before.tobytes()
        exact = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        assert spectral_radius(sym[::-1, ::-1]) == pytest.approx(exact, rel=1e-8)

    def test_other_real_dtypes(self, rng):
        m = rng.standard_normal((9, 9))
        sym = m + m.T
        for a in (sym.astype(np.float32), (10 * sym).astype(np.int64)):
            for layout in (np.ascontiguousarray(a), np.asfortranarray(a)):
                self._check(layout)
        with pytest.raises(ValueError, match="real matrix"):
            spectral_radius(sym.astype(complex))

    def test_read_only_input(self, rng):
        a = random_spd(7, rng)
        assert not a.flags.writeable
        self._check(a)

    @pytest.mark.parametrize("dim", [1, 4, 33])
    def test_zero_matrix(self, dim):
        assert self._check(np.zeros((dim, dim))) == 0.0

    def test_restart_path(self):
        # a nilpotent shift: a^4 x = 0 for every x, so every start vector
        # reaches the null space and the loop restarts until it gives up
        shift = np.eye(4, k=1)
        assert self._check(shift) == 0.0

    def test_cap_on_a_scaled_rotation(self):
        # eigenvalues +-i: the norm ratio alternates 2, 0.5 and never settles
        want = self._check(np.array([[0.0, 2.0], [-0.5, 0.0]]), max_iter=300)
        assert want[0] == "cap"


class TestNorms:
    def test_row_sum_example(self):
        assert inf_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0

    def test_identity_frobenius(self):
        for n in (1, 3, 7):
            assert fro_norm(np.eye(n)) == pytest.approx(np.sqrt(n), rel=1e-15)

    def test_zero_matrix(self):
        assert fro_norm(np.zeros((4, 4))) == inf_norm(np.zeros((4, 4))) == 0.0
        assert fro_norm(np.zeros((2, 2))) == 0.0
        assert inf_norm(np.zeros((2, 2))) == 0.0


class TestFileFormat:
    def test_matrix_round_trip(self, tmp_path, rng):
        a = square_matrix(rng.standard_normal((5, 5)))
        path = tmp_path / "m.txt"
        save_matrix(path, a, comment="round trip\nsecond line")
        assert np.array_equal(load_matrix(path), a)

    def test_vector_round_trip(self, tmp_path, rng):
        v = vector(rng.standard_normal(7))
        path = tmp_path / "v.txt"
        save_vector(path, v, comment="rhs")
        assert np.array_equal(load_vector(path), v)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n\n2\n# interior\n1 2\n3 4\n")
        assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_row_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 2\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 2 3\n4 5\n")
        with pytest.raises(ValueError, match=r"m\.txt: row 0: has 3 entries, expected 2"):
            load_matrix(path)

    def test_bad_token_names_file_and_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 2\n3 x\n")
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: row 1: could not convert string to float: 'x'"

    def test_non_finite_entry_names_file_and_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n1 2\n3 1e999\n")
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: row 1: matrix entries must be finite"

    @pytest.mark.parametrize("kind", ["matrix", "vector"])
    @pytest.mark.parametrize("dim_line", ["two", "-1", "0", "2.0", "1_0"])
    def test_dim_line_must_be_a_positive_integer(self, tmp_path, kind, dim_line):
        path = tmp_path / f"{kind}.txt"
        path.write_text(f"{dim_line}\n1 2\n3 4\n")
        load = {"matrix": load_matrix, "vector": load_vector}[kind]
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == (
            f"{path}: dim line must be a positive integer, got {dim_line!r}"
        )

    @pytest.mark.parametrize("kind", ["matrix", "vector"])
    def test_empty_file_names_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}.txt"
        path.write_text("# only a comment\n\n")
        load = {"matrix": load_matrix, "vector": load_vector}[kind]
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}: empty {kind} file"

    @pytest.mark.parametrize("kind", ["matrix", "vector"])
    def test_non_utf8_file_names_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(b"1\n\xff\n")
        load = {"matrix": load_matrix, "vector": load_vector}[kind]
        with pytest.raises(ValueError, match=f"^{path}: 'utf-8' codec can't decode"):
            load(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n1\nx\n", "could not convert string to float: 'x'"),
            ("3\n1\n2\n", "expected 3 entries, got 2"),
            ("2\n1\ninf\n", "vector entries must be finite"),
        ],
    )
    def test_vector_errors_name_file(self, tmp_path, text, message):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_vector(path)
        assert str(info.value) == f"{path}: {message}"

    # float() and int() read PEP 515 underscores ("1_0" as 10); the format
    # has none, so a data line holding one is rejected, a comment is not.
    def test_underscore_in_matrix_entry_names_file_and_row(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# a_b\n2\n1 2\n3 1_0\n")
        with pytest.raises(ValueError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: row 1: could not convert string to float: '1_0'"
        path.write_text("# a_b\n2\n1 2\n3 10\n")
        assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 10.0]])

    def test_underscore_in_vector_entry_names_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# rhs_b\n3\n1\n2 1_0.5\n")
        with pytest.raises(ValueError) as info:
            load_vector(path)
        assert str(info.value) == f"{path}: could not convert string to float: '1_0.5'"
        path.write_text("# rhs_b\n3\n1\n2 10.5\n")
        assert np.array_equal(load_vector(path), [1.0, 2.0, 10.5])

    def test_vector_may_hold_several_values_per_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# rhs\n4\n1 2\n3\n\n4\n")
        assert np.array_equal(load_vector(path), [1.0, 2.0, 3.0, 4.0])


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 3.0,
]


def _finite_bit_patterns(count, rng):
    """``count`` float64 values drawn as uniform 64-bit patterns, the
    non-finite ones dropped."""
    values = np.empty(0)
    while values.size < count:
        bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        drawn = bits.view(np.float64)
        values = np.concatenate([values, drawn[np.isfinite(drawn)]])
    return values[:count]


class TestFileBytes:
    """The writers' bytes against the former per-element writer."""

    @staticmethod
    def _check_matrix(tmp_path, a, comment=None):
        path = tmp_path / "m.txt"
        save_matrix(path, a, comment=comment)
        assert path.read_bytes() == text_file_oracle(np.asarray(a), comment)
        back = load_matrix(path)
        assert np.array_equal(back, a) and np.array_equal(np.signbit(back), np.signbit(a))

    @staticmethod
    def _check_vector(tmp_path, v, comment=None):
        path = tmp_path / "v.txt"
        save_vector(path, v, comment=comment)
        assert path.read_bytes() == text_file_oracle(np.asarray(v), comment)
        back = load_vector(path)
        assert np.array_equal(back, v) and np.array_equal(np.signbit(back), np.signbit(v))

    @pytest.mark.parametrize("x", SPECIAL_VALUES)
    def test_special_values(self, tmp_path, x):
        self._check_matrix(tmp_path, np.array([[x]]))
        self._check_vector(tmp_path, np.array([x]))

    def test_special_values_in_one_row(self, tmp_path):
        n = len(SPECIAL_VALUES)
        a = np.tile(SPECIAL_VALUES, (n, 1))
        self._check_matrix(tmp_path, a)
        self._check_vector(tmp_path, np.array(SPECIAL_VALUES))

    def test_random_spd_512(self, tmp_path):
        self._check_matrix(tmp_path, random_spd(512, np.random.default_rng(7)))

    def test_random_bit_patterns(self, tmp_path):
        values = _finite_bit_patterns(10**5, np.random.default_rng(11))
        dim = 317  # 317**2 >= 10**5: every pattern lands in a row
        a = np.concatenate([values, values[: dim * dim - values.size]]).reshape(dim, dim)
        self._check_matrix(tmp_path, a)
        self._check_vector(tmp_path, values)

    @pytest.mark.parametrize(
        "comment", ["one line", "first\nsecond\n\nfourth", "trailing newline\n", ""]
    )
    def test_comment_lines(self, tmp_path, comment):
        a = np.array([[1.0, -0.0], [0.1, 3.0]])
        self._check_matrix(tmp_path, a, comment=comment)
        self._check_vector(tmp_path, a[0], comment=comment)

    def test_literal_bytes(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(path, [[2.5, -0.0], [0.1, 3.0]], comment="a\n\nb")
        assert path.read_bytes() == b"# a\n# \n# b\n2\n2.5 -0\n0.10000000000000001 3\n"
        save_vector(path, [0.1, -0.0])
        assert path.read_bytes() == b"2\n0.10000000000000001\n-0\n"
