import argparse
import re
import warnings

import numpy as np
import pytest

from seriesinv import (
    load_matrix,
    load_vector,
    parse_run_records,
    save_matrix,
    save_vector,
    table_plans,
)
from seriesinv import cli, harness
from seriesinv.cli import _build_parser, main
from seriesinv.harness import (
    METHODS,
    HarmonicRegressorSpec,
    emit_exponent_surface,
    gen_harmonic_matrix,
)
from corpus import parse_exponent_surface, random_spd


@pytest.fixture
def harmonic_files(tmp_path):
    out = tmp_path / "harmonic.mat"
    rc = main(["gen-harmonic", "--freqs", "0.10,0.11,0.12", "--samples", "80",
               "--out", str(out)])
    assert rc == 0
    return out, tmp_path / "harmonic.mat.rhs", tmp_path / "harmonic.mat.theta"


class TestPlan:
    def test_prints_best_and_candidates(self, capsys):
        assert main(["plan", "--order", "45"]) == 0
        out = capsys.readouterr().out
        assert "order 45" in out
        assert "mmm=10" in out
        assert "EI=1.4633" in out

    def test_lists_the_order_45_catalogue_row(self, capsys):
        assert main(["plan", "--order", "45"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "  table: split(p=8,w=5, inner=split(p=2,w=3), outer=table(h5b))"
            "  mmm=10 (poly 9)  EI=1.4633"
        )

    def test_lists_table_variants(self, capsys):
        assert main(["plan", "--order", "15"]) == 0
        out = capsys.readouterr().out
        assert "table(h15b)" in out
        assert "split(p=2,w=5)" in out

    def test_reports_all_factorizations_of_18(self, capsys):
        assert main(["plan", "--order", "18"]) == 0
        out = capsys.readouterr().out
        for piece in ("p=1 w=9", "p=2 w=6", "p=5 w=3", "p=8 w=2"):
            assert piece in out

    @pytest.mark.parametrize(
        "order,message", [("1", "requires h >= 2"), ("65", "supports h <= 64")]
    )
    def test_order_out_of_range_exits_2(self, capsys, order, message):
        assert main(["plan", "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_verify_tables_exits_zero(capsys):
    rc = main(["verify-tables", "--instances", "3", "--dim", "4", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")


CATALOGUE_ROWS = (
    "h2 h3 h4 h5a h5b h6 h7 h8 h9a h9b h10a h10b h11a h11b h12 h13 h14 h15a h15b"
    " h16 h17 h18 h19 h45"
).split()


@pytest.mark.parametrize("dim", ["5", "8"])
def test_verify_tables_adds_one_h45_line_after_h19(monkeypatch, capsys, dim):
    # the order-45 row shares the plan:45 run, so every other line is the
    # one the catalogue without that row prints
    assert main(["verify-tables", "--dim", dim]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines[:-1]] == (
        [f"table:{label}" for label in CATALOGUE_ROWS]
        + [f"plan:{h}" for h in range(2, 46)]
    )
    assert re.fullmatch(r"table:h45    order=45  mmm=10  max_rel_err=\S+ ok", lines[23])
    without_45 = {order: plans for order, plans in table_plans().items() if order != 45}
    monkeypatch.setattr(harness, "table_plans", lambda: without_45)
    assert main(["verify-tables", "--dim", dim]) == 0
    assert capsys.readouterr().out.splitlines() == lines[:23] + lines[24:]


def test_verify_tables_prints_the_check_lines_then_the_verdict(capsys):
    _, lines = harness.toolkit_check(instances=3, dim=5, seed=9)
    assert main(["verify-tables", "--instances", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == "".join(f"{ln}\n" for ln in lines) + "PASS\n"


def test_verify_tables_smallest_stack_and_bad_dim(capsys):
    assert main(["verify-tables", "--instances", "1", "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip().endswith("PASS")
    assert main(["verify-tables", "--dim", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dim must be >= 1" in captured.err


class TestGenHarmonic:
    def test_writes_matrix_rhs_theta(self, harmonic_files):
        mat, rhs, theta = harmonic_files
        a = load_matrix(mat)
        b = load_vector(rhs)
        t = load_vector(theta)
        assert a.shape == (6, 6)
        assert np.allclose(a @ t, b, rtol=1e-12)

    def test_requires_theta_for_nonstandard_shapes(self, tmp_path, capsys):
        rc = main(["gen-harmonic", "--freqs", "0.3,0.5", "--samples", "40",
                   "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "error: --theta is required" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()
        rc = main(["gen-harmonic", "--freqs", "0.3,0.5", "--samples", "40",
                   "--theta", "1,2,3,4", "--out", str(tmp_path / "m")])
        assert rc == 0

    def test_defaults_are_the_paper_fixture(self, harmonic_files, tmp_path):
        # harmonic_files names the fixture's frequencies and sample count
        out = tmp_path / "default.mat"
        assert main(["gen-harmonic", "--out", str(out)]) == 0
        for path, suffix in zip(harmonic_files, ("", ".rhs", ".theta")):
            assert (tmp_path / f"default.mat{suffix}").read_bytes() == path.read_bytes()
        spec = HarmonicRegressorSpec.default()
        assert np.array_equal(load_matrix(out), gen_harmonic_matrix(spec)[0])


class TestInvert:
    @pytest.mark.parametrize("method,extra", [
        ("ns", []),
        ("double", []),
        ("composite", ["--rates", "2,3"]),
        ("sri", []),
    ])
    def test_runs_and_emits_csv(self, tmp_path, method, extra):
        mat = tmp_path / "a.mat"
        save_matrix(mat, random_spd(4, np.random.default_rng(3)))
        csv_path = tmp_path / "out.csv"
        rc = main(["invert", "--matrix", str(mat), "--method", method,
                   "--order", "2", "--h", "1", "--steps", "3",
                   "--csv", str(csv_path)] + extra)
        assert rc == 0
        recs = parse_run_records(csv_path.read_text())
        assert [r.k for r in recs] == [0, 1, 2, 3]
        assert recs[-1].error_norm < recs[0].error_norm


class TestSolve:
    @pytest.fixture
    def spd_files(self, tmp_path):
        r = np.random.default_rng(11)
        a = random_spd(4, r)
        theta = r.standard_normal(4)
        mat, rhs, tfile = tmp_path / "a.mat", tmp_path / "b.vec", tmp_path / "t.vec"
        save_matrix(mat, a)
        save_vector(rhs, a @ theta)
        save_vector(tfile, theta)
        return mat, rhs, tfile

    @pytest.mark.parametrize("method", ["richardson", "richardson-recursive", "ns-estimator"])
    def test_runs_and_emits_csv(self, spd_files, tmp_path, method):
        mat, rhs, theta = spd_files
        csv_path = tmp_path / f"{method}.csv"
        rc = main(["solve", "--matrix", str(mat), "--rhs", str(rhs),
                   "--method", method, "--order", "3", "--steps", "4",
                   "--theta-star", str(theta), "--csv", str(csv_path)])
        assert rc == 0
        recs = parse_run_records(csv_path.read_text())
        assert recs[-1].error_norm < 1e-8

    def test_ill_conditioned_fixture_run(self, harmonic_files, tmp_path):
        # the ill-conditioned fixture needs a deeper initial series
        mat, rhs, theta = harmonic_files
        csv_path = tmp_path / "hard.csv"
        rc = main(["solve", "--matrix", str(mat), "--rhs", str(rhs),
                   "--method", "richardson", "--order", "3", "--h", "16",
                   "--steps", "5", "--theta-star", str(theta),
                   "--csv", str(csv_path)])
        assert rc == 0
        assert parse_run_records(csv_path.read_text())[-1].error_norm < 1e-10

    def test_reference_solution_fallback(self, spd_files, tmp_path):
        mat, rhs, _ = spd_files
        csv_path = tmp_path / "fallback.csv"
        rc = main(["solve", "--matrix", str(mat), "--rhs", str(rhs),
                   "--method", "richardson", "--steps", "3", "--csv", str(csv_path)])
        assert rc == 0
        assert parse_run_records(csv_path.read_text())[-1].error_norm < 1e-6

    def test_repeat_runs_differ_only_in_wall_time(self, spd_files, tmp_path):
        mat, rhs, theta = spd_files
        outs = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            main(["solve", "--matrix", str(mat), "--rhs", str(rhs),
                  "--method", "richardson", "--steps", "3",
                  "--theta-star", str(theta), "--csv", str(path)])
            outs.append(parse_run_records(path.read_text()))
        one, two = outs
        assert len(one) == len(two)
        for r1, r2 in zip(one, two):
            assert (r1.method, r1.k, r1.error_norm, r1.predicted_bound,
                    r1.exponent, r1.mmm_cum) == (
                r2.method, r2.k, r2.error_norm, r2.predicted_bound,
                r2.exponent, r2.mmm_cum)


class TestErrorHandling:
    def test_missing_matrix_file(self, tmp_path, capsys):
        rc = main(["invert", "--matrix", str(tmp_path / "absent.mat"),
                   "--method", "ns", "--steps", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_matrix_file_names_file_and_row(self, tmp_path, capsys):
        mat = tmp_path / "bad.mat"
        mat.write_text("2\n1 x\n3 4\n")
        rc = main(["invert", "--matrix", str(mat), "--method", "ns", "--steps", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {mat}: row 0: could not convert string to float: 'x'\n"
        )

    def test_underscore_entry_names_file_and_row(self, tmp_path, capsys):
        mat = tmp_path / "u.mat"
        mat.write_text("2\n1_0 0\n0 1\n")
        rc = main(["invert", "--matrix", str(mat), "--method", "ns", "--steps", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {mat}: row 0: could not convert string to float: '1_0'\n"
        )

    @pytest.mark.parametrize("argv", [
        ["--rhs", "{rhs}", "--theta-star", "{t5}", "--method", "richardson"],
        ["--rhs", "{t5}", "--method", "richardson"],
        ["--rhs", "{t5}", "--theta-star", "{theta}", "--method", "ns-estimator"],
    ])
    def test_vector_length_checked_before_any_matrix_work(
        self, harmonic_files, monkeypatch, capsys, argv
    ):
        mat, rhs, theta = harmonic_files
        t5 = mat.parent / "t5.vec"
        save_vector(t5, np.arange(1.0, 6.0))
        calls = []
        monkeypatch.setattr(harness, "split_scalar", lambda *args: calls.append("split"))
        monkeypatch.setattr(cli.np.linalg, "solve", lambda *args: calls.append("solve"))
        argv = [arg.format(rhs=rhs, t5=t5, theta=theta) for arg in argv]
        rc = main(["solve", "--matrix", str(mat)] + argv)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {t5}: has 5 entries, expected 6 to match {mat}\n"
        )
        assert calls == []

    @pytest.mark.parametrize("rows, message", [
        ("1 1\n1 1\n", "matrix is not positive definite"),
        ("1 2\n0 1\n", "matrix must be symmetric"),
    ])
    def test_bad_matrix_rejected_before_the_reference_solve(
        self, tmp_path, monkeypatch, capsys, rows, message
    ):
        # without --theta-star the dense reference solve runs only on an A
        # the splitting has accepted
        mat, rhs = tmp_path / "bad.mat", tmp_path / "b.vec"
        mat.write_text("2\n" + rows)
        rhs.write_text("2\n1\n1\n")
        calls = []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append("solve"))
        rc = main(["solve", "--matrix", str(mat), "--rhs", str(rhs), "--method", "richardson"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    def test_indefinite_matrix(self, tmp_path, capsys):
        mat = tmp_path / "bad.mat"
        save_matrix(mat, np.array([[1.0, 2.0], [2.0, 1.0]]))
        rc = main(["invert", "--matrix", str(mat), "--method", "ns", "--steps", "1"])
        assert rc == 2
        assert "positive definite" in capsys.readouterr().err

    def test_unconverged_rho_is_reported(self, tmp_path):
        mat = tmp_path / "clustered.mat"
        save_matrix(mat, random_spd(64, np.random.default_rng(0)))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            rc = main(["invert", "--matrix", str(mat), "--method", "ns", "--steps", "1"])
        assert rc == 0

    @pytest.mark.parametrize("command", ["invert", "solve"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_2(self, tmp_path, capsys, command, eps):
        r = np.random.default_rng(0)
        a = random_spd(3, r)
        mat, rhs, csv_path = tmp_path / "a.mat", tmp_path / "b.vec", tmp_path / "never.csv"
        save_matrix(mat, a)
        save_vector(rhs, a @ r.standard_normal(3))
        extra = {
            "invert": ["--method", "ns"],
            "solve": ["--rhs", str(rhs), "--method", "richardson"],
        }[command]
        rc = main([command, "--matrix", str(mat), *extra, "--eps", eps, "--csv", str(csv_path)])
        assert rc == 2
        assert "eps must be positive and finite" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_overflowing_alpha_exits_2_naming_eps(self, tmp_path, capsys):
        mat = tmp_path / "big2.mat"
        mat.write_text("2\n5e307 0\n0 5e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["invert", "--matrix", str(mat), "--method", "ns", "--eps", "1.7e308"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: eps too large: ||A||_inf / 2 + eps overflows, got 1.7e+308\n"

    @pytest.mark.parametrize("argv, message", [
        (["invert", "--method", "composite", "--rates", "2.5"],
         "--rates: expected an integer, got '2.5' in '2.5'"),
        (["invert", "--method", "composite", "--rates", "2,,3"],
         "--rates: expected an integer, got '' in '2,,3'"),
        (["gen-harmonic", "--freqs", "a,b,c"], "--freqs: expected a number, got 'a' in 'a,b,c'"),
        (["gen-harmonic", "--freqs", "0.1,0.2", "--theta", "1,x"],
         "--theta: expected a number, got 'x' in '1,x'"),
    ], ids=["float-rate", "empty-rate", "freqs", "theta"])
    def test_bad_list_item_names_the_option(self, tmp_path, capsys, argv, message):
        out = tmp_path / "never.mat"
        path = ["--matrix", str(out)] if argv[0] == "invert" else ["--out", str(out)]
        assert main(argv[:1] + path + argv[1:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_composite_without_rates(self, tmp_path, capsys):
        mat = tmp_path / "a.mat"
        save_matrix(mat, random_spd(3, np.random.default_rng(0)))
        rc = main(["invert", "--matrix", str(mat), "--method", "composite",
                   "--steps", "1"])
        assert rc == 2


class TestMethodChoices:
    @staticmethod
    def choices(command):
        sub = next(
            act for act in _build_parser()._actions
            if isinstance(act, argparse._SubParsersAction)
        )
        method = next(act for act in sub.choices[command]._actions if act.dest == "method")
        return list(method.choices)

    @pytest.mark.parametrize("command", ["invert", "solve"])
    def test_choices_are_the_table_kinds_in_order(self, command):
        kinds = [kind for kind, row in METHODS.items() if row.command == command]
        assert self.choices(command) == kinds

    def test_choice_order_is_pinned(self):
        assert self.choices("invert") == ["ns", "double", "composite", "sri"]
        assert self.choices("solve") == ["richardson", "richardson-recursive", "ns-estimator"]


class TestMethodValidation:
    @pytest.fixture
    def files(self, tmp_path):
        r = np.random.default_rng(5)
        a = random_spd(3, r)
        mat, rhs = tmp_path / "a.mat", tmp_path / "b.vec"
        save_matrix(mat, a)
        save_vector(rhs, a @ r.standard_normal(3))
        return mat, rhs

    @pytest.mark.parametrize("argv,message", [
        (["invert", "--method", "ns", "--rates", "2,3"], "method ns takes no rates"),
        (["invert", "--method", "sri", "--rates", "2"], "method sri takes no rates"),
        (["invert", "--method", "composite", "--rates", "0"], "rates must be positive"),
        (["solve", "--method", "ns-estimator", "--q", "3"], "method ns-estimator takes no q"),
        (["solve", "--method", "richardson-recursive", "--order", "3", "--q", "2"],
         "method richardson-recursive requires q == order"),
        (["solve", "--method", "richardson-recursive", "--order", "3", "--q", "2",
          "--steps", "0"], "requires q == order"),
        (["invert", "--method", "sri", "--order", "1"], "method sri requires order >= 2"),
        (["invert", "--method", "sri", "--order", "1", "--steps", "0"], "requires order >= 2"),
        (["invert", "--method", "ns", "--order", "0"], "method ns requires order >= 1"),
        (["invert", "--method", "double", "--h", "0"], "h must be >= 1"),
        (["solve", "--method", "richardson", "--h", "0"], "h must be >= 1"),
    ])
    def test_invalid_method_exits_2(self, files, tmp_path, capsys, argv, message):
        mat, rhs = files
        extra = ["--rhs", str(rhs)] if argv[0] == "solve" else []
        csv_path = tmp_path / "never.csv"
        rc = main(argv[:1] + ["--matrix", str(mat)] + extra + argv[1:]
                  + ["--csv", str(csv_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("extra,message", [
        (["--method", "sri", "--order", "1"], "requires order >= 2"),
        (["--method", "ns", "--order", "0"], "requires order >= 1"),
        (["--method", "double", "--h", "0"], "h must be >= 1"),
    ])
    def test_order_and_h_checked_before_any_matrix_work(
        self, monkeypatch, capsys, extra, message
    ):
        calls = []
        monkeypatch.setattr(cli, "load_matrix", lambda *args: calls.append("load"))
        monkeypatch.setattr(harness, "split_scalar", lambda *args: calls.append("split"))
        monkeypatch.setattr(harness, "spectral_radius", lambda *args, **kw: calls.append("rho"))
        assert main(["invert", "--matrix", "unused.mat"] + extra) == 2
        assert calls == []
        assert message in capsys.readouterr().err

    def test_q_checked_before_the_files_are_read(self, tmp_path, capsys):
        rc = main(["solve", "--matrix", str(tmp_path / "missing.mat"),
                   "--rhs", str(tmp_path / "missing.rhs"), "--method", "richardson",
                   "--q", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "q must be >= 1" in err
        assert "missing" not in err

    def test_method_checked_before_the_matrix(self, tmp_path, capsys):
        mat = tmp_path / "bad.mat"
        save_matrix(mat, np.array([[1.0, 2.0], [2.0, 1.0]]))
        rc = main(["invert", "--matrix", str(mat), "--method", "ns", "--rates", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "method ns" in err
        assert "positive definite" not in err


class TestParserReuse:
    """``main`` builds its parser once and shares it between calls."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    @staticmethod
    def run(argv, csv_path, capsys):
        """Exit code, stdout, stderr and CSV rows without ``wall_ns``."""
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse errors exit 2
            rc = exc.code
        out, err = capsys.readouterr()
        rows = None
        if csv_path.exists():
            rows = [line.rsplit(",", 1)[0] for line in csv_path.read_text().splitlines()]
            csv_path.unlink()
        return rc, out, err, rows

    def test_calls_in_sequence_match_calls_alone(self, harmonic_files, tmp_path, capsys):
        # Each call sets what its predecessor set differently (rates, q,
        # error_norm), so a default that leaked would show in its output.
        mat, rhs, theta = (str(path) for path in harmonic_files)
        solve = ["solve", "--matrix", mat, "--rhs", rhs, "--steps", "2"]
        invert = ["invert", "--matrix", mat, "--steps", "2"]
        calls = [
            ["plan", "--order", "12"],
            invert + ["--method", "composite", "--rates", "2,3"],
            solve + ["--method", "richardson", "--q", "3", "--theta-star", theta],
            solve + ["--method", "ns-estimator", "--h", "4"],
            invert + ["--method", "ns", "--order", "3"],
            invert + ["--method", "sri", "--order", "1"],
            invert + ["--method", "bogus"],
            ["verify-tables", "--instances", "2", "--dim", "3"],
            ["gen-harmonic", "--out", str(tmp_path / "g.mat")],
            ["surfaces", "--kind", "fig2", "--n-max", "3", "--k-max", "2"],
        ]
        csv_path = tmp_path / "run.csv"
        calls = [argv + ["--csv", str(csv_path)] if argv[0] in ("invert", "solve") else argv
                 for argv in calls]
        alone = []
        for argv in calls:
            _build_parser.cache_clear()
            alone.append(self.run(argv, csv_path, capsys))
        _build_parser.cache_clear()
        in_sequence = [self.run(argv, csv_path, capsys) for argv in calls]
        assert in_sequence == alone
        assert [rc for rc, *_ in alone] == [0, 0, 0, 0, 0, 2, 2, 0, 0, 0]
        assert all(rows for _, _, _, rows in alone[1:5])


class TestSurfaces:
    @pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3"])
    def test_emits_csv_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        rc = main(["surfaces", "--kind", kind, "--csv", str(path)])
        assert rc == 0
        text = path.read_text()
        assert text.startswith("p,w,h,mmm" if kind == "fig1" else "n,k,")

    def test_stdout_output(self, capsys):
        assert main(["surfaces", "--kind", "fig1"]) == 0
        assert capsys.readouterr().out.startswith("p,w,h,mmm")

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_overflowing_power_prints_inf(self, capsys, kind):
        assert main(["surfaces", "--kind", kind, "--rho", "2"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = parse_exponent_surface(out.out)
        assert rows[-1][4:] == (float("inf"), float("inf"))

    @pytest.mark.parametrize(
        "kind, n_max, k_max", [("fig2", "200", "200"), ("fig3", "3", "2000")]
    )
    def test_baseline_exponent_out_of_float_range_prints_inf(self, capsys, kind, n_max, k_max):
        assert main(["surfaces", "--kind", kind, "--n-max", n_max, "--k-max", k_max]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = parse_exponent_surface(out.out)
        assert rows[-1][3:] == (float("inf"), 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_powers_above_one_in_range_unchanged(self, capsys, kind):
        args = ["--rho", "1.001", "--n-max", "3", "--k-max", "3"]
        assert main(["surfaces", "--kind", kind, *args]) == 0
        out = capsys.readouterr().out
        assert out == emit_exponent_surface(kind, range(2, 4), range(1, 4), rho=1.001)
        assert "inf" not in out

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--n-max", "1"], "at least one n and one k"),
            (["--k-max", "0"], "at least one n and one k"),
            (["--rho", "nan"], "rho must be finite and >= 0"),
            (["--rho", "inf"], "rho must be finite and >= 0"),
            (["--rho", "-2"], "rho must be finite and >= 0"),
            (["--h", "0"], "h must be >= 1"),
            (["--h", "-1"], "h must be >= 1"),
        ],
    )
    @pytest.mark.parametrize("kind", ["fig2", "fig3"])
    def test_meaningless_grid_or_rho_exits_2(self, tmp_path, capsys, kind, args, message):
        path = tmp_path / "never.csv"
        assert main(["surfaces", "--kind", kind, "--csv", str(path), *args]) == 2
        out = capsys.readouterr()
        assert message in out.err and out.out == ""
        assert not path.exists()
