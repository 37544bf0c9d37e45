"""Lowered programs compiled to straight-line Python.

Each plan and each start or step program is compiled on its first run to
one Python function, kept on its program, and that function is the
executor.  ``corpus.reference_execute`` is the interpreter it replaced: the
compiled code must match it bit for bit and count for count, run directly
and as one task on a concurrent.futures executor, and compile each program
once and only when it first runs.
"""

import linecache
import os
import subprocess
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from corpus import (
    BENCH_SPECS,
    hand_plans,
    poly_array,
    reference_plan,
    reference_run,
    same_bits,
    signed_zero_matrix,
)
from seriesinv import MulCounter, series_toolkit
from seriesinv.harness import method_programs
from seriesinv.newton_schulz import double_program
from seriesinv.series_toolkit import (
    Lin,
    Mul,
    Residual,
    TableForm,
    _Builder,
    plan_order,
    run_program,
    table_plans,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def every_plan():
    """The searched plans, the catalogue, the plans above order 64 up to
    200, and the hand-built forms with every fused and general ``Lin``
    start (signed-zero constants included)."""
    plans = [plan for _, plan in hand_plans()]
    plans += [plan_order(h) for h in range(2, 65)]
    plans += [plan for row in table_plans().values() for plan in row]
    return plans + [series_toolkit._geometric_plan(order) for order in range(65, 201)]


def every_method_program():
    seen = {}
    for m in BENCH_SPECS:
        for program in method_programs(m):
            seen[id(program)] = program
    return list(seen.values())


def random_poly(rng):
    return Polynomial(rng.integers(-3, 4, size=3).astype(float))


# Operand kinds: 2-D at n = 1 (np.matmul), 2, 5, 6 (ndarray.dot) and 65
# (np.matmul again), a (3, 5, 5) stack, 2-D and stacked operands with
# signed zeros, and 1 x 1 polynomial operands.
OPERANDS = ("n1", "n2", "n5", "n6", "n65", "stack", "zeros", "zeros-stack", "poly")


def operand_maker(kind, rng):
    """A function from an input name to a fresh operand of ``kind``:
    ``theta`` and ``b`` are vectors, every other input a matrix."""
    if kind == "poly":
        return lambda name: (
            poly_array(random_poly(rng))
            if name in ("theta", "b")
            else poly_array(random_poly(rng)).reshape(1, 1)
        )
    shape = {
        "stack": (3, 5, 5),
        "zeros": (5, 5),
        "zeros-stack": (3, 5, 5),
    }.get(kind) or (int(kind[1:]),) * 2
    if kind.startswith("zeros"):
        matrix = lambda: signed_zero_matrix(rng, shape)
    else:
        matrix = lambda: rng.standard_normal(shape) / shape[-1]
    return lambda name: rng.standard_normal(shape[-1]) if name in ("theta", "b") else matrix()


def run_on(executor, program, inputs, a, ctr):
    """``run_program`` in this thread, or as one task on ``executor``."""
    if executor is None:
        return run_program(program, inputs, a, ctr)
    return executor.submit(run_program, program, inputs, a, ctr).result()


@pytest.fixture(scope="module")
def pool():
    with ThreadPoolExecutor(2) as ex:
        yield ex


@pytest.mark.parametrize("kind", OPERANDS)
def test_compiled_plans_equal_the_reference_bitwise(kind):
    rng = np.random.default_rng(len(kind))
    make = operand_maker(kind, rng)
    y, x, a = make("Y"), make("X"), make("A")
    for plan in every_plan():
        got_ctr, want_ctr = MulCounter(), MulCounter()
        got = series_toolkit._run_plan(plan, y, x, a, got_ctr)
        want = reference_plan(plan, y, x, a, want_ctr)
        assert same_bits(got, want), series_toolkit.plan_str(plan)
        assert got_ctr == want_ctr


@pytest.mark.parametrize("kind", OPERANDS)
def test_compiled_programs_equal_the_reference_bitwise(kind, pool):
    # every start and step program the benchmark's methods run, directly
    # and as one executor task; a stack takes no vector input
    rng = np.random.default_rng(len(kind))
    make = operand_maker(kind, rng)
    a = make("A")
    for program in every_method_program():
        if a.ndim == 3 and {"theta", "b"} & set(program.inputs):
            continue
        inputs = [make(name) for name in program.inputs]
        want_ctr = MulCounter()
        want = reference_run(program, inputs, a, want_ctr)
        for executor in (None, pool):
            ctr = MulCounter()
            got = run_on(executor, program, list(inputs), a, ctr)
            assert len(got) == len(want), program.name
            for i, (g, w) in enumerate(zip(got, want)):
                assert same_bits(g, w), (program.name, executor, i)
            assert ctr == want_ctr, (program.name, executor)
            # outputs are fresh arrays: none is an input
            assert not any(g is v for g in got for v in inputs)


def rebuilt_plan(plan):
    """A plan equal to ``plan`` that has never run: a copy of the node, it
    calls the children's programs and compiles nothing yet."""
    return replace(plan)


def test_a_program_compiles_once_on_its_first_run(monkeypatch, pool):
    compiled = []
    compile_ = series_toolkit._compile

    def counting(program):
        compiled.append(program.name)
        return compile_(program)

    monkeypatch.setattr(series_toolkit, "_compile", counting)
    rng = np.random.default_rng(2)
    y, x, a = (rng.standard_normal((5, 5)) for _ in range(3))

    plan = rebuilt_plan(plan_order(45))
    assert plan.program._run is None and compiled == []
    first = series_toolkit._run_plan(plan, y, x, a, MulCounter())
    assert compiled == [f"plan {series_toolkit.plan_str(plan)}"]
    run = plan.program._run
    again = series_toolkit._run_plan(plan, y, x, a, MulCounter())
    assert plan.program._run is run and len(compiled) == 1
    assert same_bits(first, again)

    bld = _Builder("L", "G", "F")
    lead = bld.emit(Residual, 0)
    main = bld.emit(Mul, 2, 1, 1)
    program = bld.build("program test two sums", G=bld.emit(Mul, lead, main))
    inputs = [x, y, a]
    compiled.clear()
    serial = run_program(program, inputs, a, MulCounter())
    assert compiled == ["program test two sums"]
    run_program(program, inputs, a, MulCounter())
    # an executor runs the same compiled function as one task
    threaded = run_on(pool, program, inputs, a, MulCounter())
    assert len(compiled) == 1
    assert same_bits(serial[0], threaded[0])


def test_a_second_run_of_any_program_compiles_nothing(monkeypatch, pool):
    rng = np.random.default_rng(3)
    y, x, a = (rng.standard_normal((4, 4)) for _ in range(3))
    plans, programs = every_plan(), every_method_program()

    def run_all():
        # the plans above order 64 are fetched again: a cache that evicted
        # them would hand back a new plan, whose program compiles again
        for plan in plans + [series_toolkit._geometric_plan(h) for h in range(65, 201)]:
            series_toolkit._run_plan(plan, y, x, a, MulCounter())
        for program in programs:
            inputs = [rng.standard_normal(4) if n in ("theta", "b") else x for n in program.inputs]
            for executor in (None, pool):
                run_on(executor, program, inputs, a, MulCounter())

    run_all()

    def forbidden(program):
        raise AssertionError(f"{program.name} compiled again")

    monkeypatch.setattr(series_toolkit, "_compile", forbidden)
    run_all()


def test_plan_search_and_programs_compile_nothing_until_run():
    # a cold search of every order, the catalogue, and building every start
    # and step program of the benchmark's methods compile no program: the
    # compiled code is made on a program's first run
    script = "\n".join([
        "from seriesinv import harness, series_toolkit",
        "compiled = []",
        "series_toolkit._compile = lambda program: compiled.append(program.name)",
        "for h in range(2, 65):",
        "    series_toolkit.plan_order(h)",
        "series_toolkit.table_plans()",
        "specs = " + repr([(m.kind, m.order, m.h, m.q, m.rates) for m in BENCH_SPECS]),
        "for kind, order, h, q, rates in specs:",
        "    harness.method_programs(harness.MethodSpec(kind, order, h, q=q, rates=rates))",
        "print(len(compiled))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_a_traceback_names_the_program_and_its_line():
    # the compiled code has a readable filename, and its source is
    # registered, so a failing product shows where it failed
    program = double_program(3)
    wrong = np.ones((3, 3))
    with pytest.raises(ValueError) as info:
        run_program(program, [wrong, wrong, wrong], np.ones((4, 4)), MulCounter())
    frames = traceback.extract_tb(info.tb)
    assert frames[-1].filename == "<program double:n3 step>"
    assert frames[-1].line == "r3 = mul(r0, a)"


def test_programs_sharing_a_name_keep_their_own_source():
    # two table forms with one label compile under one name; each keeps
    # its own source, so a traceback through either shows its own line
    y = x = a = np.eye(3)
    plans = [
        TableForm("dup", 2, (Mul("z", "Y", "X", "X"),)),
        TableForm("dup", 2, (Lin("z", 1.0, ((1.0, "Y"),)),)),
    ]
    for plan in plans:
        series_toolkit._run_plan(plan, y, x, a, MulCounter())
    files = [plan.program._run.__code__.co_filename for plan in plans]
    assert files[0] != files[1]
    assert all(name.startswith("<plan table(dup)") for name in files)
    assert "    r2 = mul(r0, r1)\n" in linecache.getlines(files[0])
    assert "    r2 = add(eye, r0)\n" in linecache.getlines(files[1])
