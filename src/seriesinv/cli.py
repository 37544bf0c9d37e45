"""Command-line benchmark front end.

Subcommands:

* ``plan``          print factorization plans (counts, efficiency index)
* ``verify-tables`` run the plan catalogue against the Horner oracle
* ``invert``        drive an inversion method on a matrix file, emit CSV
* ``solve``         drive an estimation method on matrix + rhs files
* ``gen-harmonic``  generate the harmonic-regressor fixture files
* ``surfaces``      emit the cost/exponent surface tables
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .harness import (
    METHODS,
    HarmonicRegressorSpec,
    MethodSpec,
    condition_number,
    emit_exponent_surface,
    emit_mmm_surface,
    gen_harmonic_matrix,
    records_to_csv,
    run_comparison,
    toolkit_check,
)
from .matrix_core import load_matrix, load_vector, save_matrix, save_vector
from .series_toolkit import _split_plan, plan_order, plan_str, split_candidates, table_plans

__all__ = ["main"]


def _cmd_plan(args) -> int:
    h = args.order
    plan = plan_order(h)
    print(f"order {h}")
    print(
        f"  best: {plan_str(plan)}  mmm={plan.mmm_cost} (poly {plan.mmm_poly})"
        f"  EI={plan.efficiency_index:.4f}"
    )
    for table_plan in table_plans().get(h, ()):
        print(
            f"  table: {plan_str(table_plan)}  mmm={table_plan.mmm_cost}"
            f" (poly {table_plan.mmm_poly})  EI={table_plan.efficiency_index:.4f}"
        )
    cands = split_candidates(h)
    if cands:
        print("  single-level factorizations:")
        for p, w in cands:
            split = _split_plan(p, w)
            print(f"    p={p} w={w}: mmm={split.mmm_cost}  EI={split.efficiency_index:.4f}")
    return 0


def _cmd_verify_tables(args) -> int:
    ok, lines = toolkit_check(instances=args.instances, dim=args.dim, seed=args.seed)
    lines.append("PASS" if ok else "FAIL")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _kinds(command: str) -> list[str]:
    return [kind for kind, row in METHODS.items() if row.command == command]


def _items(text: str, option: str, convert) -> tuple:
    """The comma-separated items of ``text``, each converted by ``convert``
    (``int`` or ``float``); an empty ``text`` has none.  An empty or
    malformed item is an error that names ``option``."""
    if not text:
        return ()
    items = []
    for tok in text.split(","):
        try:
            items.append(convert(tok))
        except ValueError:
            what = "an integer" if convert is int else "a number"
            raise ValueError(f"{option}: expected {what}, got {tok!r} in {text!r}") from None
    return tuple(items)


def _load_operand(path: str, matrix_path: str, dim: int) -> np.ndarray:
    """A vector file whose length must be the matrix's dimension."""
    v = load_vector(path)
    if v.size != dim:
        raise ValueError(f"{path}: has {v.size} entries, expected {dim} to match {matrix_path}")
    return v


def _cmd_run(args) -> int:
    method = MethodSpec(
        kind=args.method,
        order=args.order,
        h=args.h,
        q=args.q,
        rates=_items(args.rates, "--rates", int),
    )
    if args.steps < 0:
        raise ValueError("steps must be >= 0")
    a = load_matrix(args.matrix)
    b = theta_star = np.zeros(a.shape[0])
    if args.command == "solve":
        b = _load_operand(args.rhs, args.matrix, a.shape[0])
        # Without --theta-star run_comparison solves for the reference.
        theta_star = (
            _load_operand(args.theta_star, args.matrix, a.shape[0])
            if args.theta_star
            else None
        )
    records = run_comparison(a, b, theta_star, [method], args.steps, eps=args.eps)
    _write_or_print(records_to_csv(records), args.csv)
    last = records[-1]
    print(
        f"{last.method}: steps={last.k} final {args.error_norm} = "
        f"{last.error_norm:.3e}  mmm={last.mmm_cum}",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_harmonic(args) -> int:
    freqs = _items(args.freqs, "--freqs", float)
    if args.theta:
        theta = _items(args.theta, "--theta", float)
    elif len(freqs) == 3 and not args.bias:
        theta = HarmonicRegressorSpec.default().theta_star
    else:
        raise ValueError("--theta is required unless using three frequencies without --bias")
    spec = HarmonicRegressorSpec(
        frequencies=freqs, num_samples=args.samples, theta_star=theta, bias=args.bias
    )
    a, b, theta_star = gen_harmonic_matrix(spec)
    save_matrix(args.out, a, comment=f"harmonic regressor, freqs={freqs}, N={args.samples}")
    rhs_path = args.rhs_out or args.out + ".rhs"
    theta_path = args.theta_out or args.out + ".theta"
    save_vector(rhs_path, b, comment="right-hand side b = A theta*")
    save_vector(theta_path, theta_star, comment="true parameter vector theta*")
    print(f"wrote {args.out}, {rhs_path}, {theta_path}", file=sys.stderr)
    print(f"condition number: {condition_number(a):.6e}", file=sys.stderr)
    return 0


def _cmd_surfaces(args) -> int:
    if args.kind == "fig1":
        text = emit_mmm_surface()
    else:
        text = emit_exponent_surface(
            args.kind,
            n_range=range(2, args.n_max + 1),
            k_range=range(1, args.k_max + 1),
            h=args.h,
            rho=args.rho,
        )
    _write_or_print(text, args.csv)
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it, so
    every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="seriesinv",
        description="Iterative matrix inversion and least-squares benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print factorization plans for an order")
    p_plan.add_argument("--order", type=int, required=True)
    p_plan.set_defaults(func=_cmd_plan)

    p_verify = sub.add_parser("verify-tables", help="check the plan catalogue")
    p_verify.add_argument("--instances", type=int, default=50)
    p_verify.add_argument("--dim", type=int, default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify_tables)

    # the options of invert and solve, which add their own to them
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--matrix", required=True)
    run.add_argument("--order", type=int, default=2)
    run.add_argument("--h", type=int, default=1)
    run.add_argument("--steps", type=int, default=5)
    run.add_argument("--eps", type=float, default=None)
    run.add_argument("--csv", default=None)

    p_inv = sub.add_parser("invert", parents=[run], help="run an inversion method on a matrix file")
    p_inv.add_argument("--method", choices=_kinds("invert"), required=True)
    p_inv.add_argument("--rates", default="", help="comma-separated composite rates")
    p_inv.set_defaults(func=_cmd_run, q=None, error_norm="||I - G A||_F")

    p_solve = sub.add_parser(
        "solve", parents=[run], help="run an estimation method on matrix + rhs"
    )
    p_solve.add_argument("--rhs", required=True)
    p_solve.add_argument("--method", choices=_kinds("solve"), required=True)
    p_solve.add_argument("--q", type=int, default=None)
    p_solve.add_argument("--theta-star", default=None)
    p_solve.set_defaults(func=_cmd_run, rates="", error_norm="||theta - theta*||")

    fixture = HarmonicRegressorSpec.default()
    p_gen = sub.add_parser("gen-harmonic", help="generate the harmonic fixture")
    p_gen.add_argument("--freqs", default=",".join(map(str, fixture.frequencies)))
    p_gen.add_argument("--samples", type=int, default=fixture.num_samples)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--rhs-out", default=None)
    p_gen.add_argument("--theta-out", default=None)
    p_gen.add_argument("--theta", default=None, help="comma-separated true parameters")
    p_gen.add_argument("--bias", action="store_true")
    p_gen.set_defaults(func=_cmd_gen_harmonic)

    p_surf = sub.add_parser("surfaces", help="emit cost/exponent surface tables")
    p_surf.add_argument("--kind", choices=["fig1", "fig2", "fig3"], required=True)
    p_surf.add_argument("--csv", default=None)
    p_surf.add_argument("--rho", type=float, default=0.99)
    p_surf.add_argument("--h", type=int, default=1)
    p_surf.add_argument("--n-max", type=int, default=6)
    p_surf.add_argument("--k-max", type=int, default=8)
    p_surf.set_defaults(func=_cmd_surfaces)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
