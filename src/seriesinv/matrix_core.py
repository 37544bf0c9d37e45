"""Dense matrix primitives with an instrumented multiplication counter.

Everything downstream (splittings, series evaluation, the iteration family)
works on plain float64 numpy arrays validated by :func:`square_matrix` /
:func:`vector`.  Matrix products that belong to an algorithm's cost model go
through :func:`mat_mul` / :func:`mat_vec`, which tick a :class:`MulCounter`;
the one exception is the executor in ``series_toolkit``, which runs the
products of every lowered program (each plan, and each start and step
function of the iteration family) inline and counts them by the same rule.
Uncounted oracles, such as the ``mat_pow`` the exponent-law tests compare
against, live with the tests.

Stacked operands: :func:`mat_mul`, :func:`residual_of` and
:func:`subtract_from_identity` also take ``(k, n, n)`` stacks of k
independent instances (``np.matmul`` broadcasts), so one call runs all of
them.  The counter still counts n x n products: a stacked product of k pairs
counts k, so a plan run once over a stack of k instances counts k times the
plan's cost.  Each instance of a stacked result is bitwise equal to the
same computation on its own ``(n, n)`` operands: a small 2-D product runs
through ``ndarray.dot`` (see :func:`mat_mul`) and a stacked one through
``np.matmul``, and both call the same BLAS gemm per n x n product, so they
give the same bits.

Buffer rule: a kernel overwrites only arrays it has just allocated itself,
such as the result of a counted product (``I - X A`` is formed in place in
the product's buffer by :func:`residual_of`, a Horner ``+ X`` is added into
the product it follows).  Inputs and the arrays held by an iteration state
are never written, so concurrent branches can share them read-only, and
every array a step computes for the state it returns is freshly allocated.
The rule holds for stacks alike: a stacked product is one fresh array.  The
one shared array is the read-only n x n identity of
:func:`identity_constant`, which kernels only read: they never return it
or store it in a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

__all__ = [
    "MulCounter",
    "SpectralRadiusError",
    "check_int",
    "identity_constant",
    "inf_norm",
    "fro_norm",
    "fro_norms",
    "load_matrix",
    "load_vector",
    "mat_mul",
    "mat_vec",
    "residual_of",
    "run_branches",
    "save_matrix",
    "save_vector",
    "spectral_radius",
    "square_matrix",
    "square_stack",
    "subtract_from_identity",
    "vector",
]


def square_matrix(entries) -> np.ndarray:
    """Validate and return a read-only float64 square matrix.

    Accepts anything ``np.asarray`` does.  Rejects non-square shapes and
    non-finite entries.  The returned array is frozen so it can be shared
    freely across concurrent workers.
    """
    return _square(entries, (2,))


def square_stack(entries) -> np.ndarray:
    """:func:`square_matrix` for an ``(n, n)`` matrix or a ``(k, n, n)``
    stack of them, with the same checks and messages."""
    return _square(entries, (2, 3))


def _square(entries, ndims: tuple[int, ...]) -> np.ndarray:
    a = np.array(entries, dtype=np.float64)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2] or 0 in a.shape:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    a.flags.writeable = False
    return a


def vector(entries) -> np.ndarray:
    """Validate and return a read-only float64 vector."""
    v = np.array(entries, dtype=np.float64).reshape(-1)
    if v.size < 1:
        raise ValueError("vector must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    v.flags.writeable = False
    return v


def check_int(label: str, value) -> None:
    """Reject a ``value`` that is not an integer, or is a bool, with the
    message every boundary gives (``"order must be an integer, got 1.5"``).
    Any ``numbers.Integral`` other than bool passes, numpy integers
    included."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, Integral)):
        raise ValueError(f"{label} must be an integer, got {value!r}")


@lru_cache(maxsize=8)
def identity_constant(dim: int) -> np.ndarray:
    """The read-only ``dim`` x ``dim`` identity, one shared array per size
    for kernels to read; use ``np.eye(dim)`` for an array to keep."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


@dataclass
class MulCounter:
    """Running tally of matrix-matrix (mmm) and matrix-vector (mvm) products.

    Counters are per-experiment; parallel branches use private counters that
    are merged back by summation, so totals are independent of scheduling.
    """

    mmm: int = 0
    mvm: int = 0

    def merge(self, other: "MulCounter") -> None:
        """Fold another counter into this one (summation merge)."""
        self.mmm += other.mmm
        self.mvm += other.mvm

    def copy(self) -> "MulCounter":
        return MulCounter(self.mmm, self.mvm)


def run_branches(ctr: MulCounter, executor, *branches) -> list:
    """``branch(counter)`` for each branch, results in branch order.  Serial
    on ``ctr`` without ``executor``; with one, concurrent on private
    counters merged into ``ctr`` in branch order.  Branches that share only
    read-only state give bitwise-identical results either way."""
    if executor is None:
        return [branch(ctr) for branch in branches]
    counters = [MulCounter() for _ in branches]
    futures = [executor.submit(branch, c) for branch, c in zip(branches, counters)]
    results = [f.result() for f in futures]
    for c in counters:
        ctr.merge(c)
    return results


# The largest n whose 2-D products run through ``ndarray.dot``.  ``dot``
# saves the ufunc dispatch of ``@`` (about 0.5 us a call) but zero-fills its
# result before the gemm.  It measured faster up to n = 64, the same within
# noise from n = 96, and about 1% slower at n = 512.
DOT_MAX_DIM = 64


def mat_mul(a: np.ndarray, b: np.ndarray, ctr: MulCounter) -> np.ndarray:
    """Dense product ``a @ b``; increments ``ctr.mmm`` by one, or by k for
    stacked ``(k, n, n)`` operands (one per n x n product).

    Two 2-D operands with 2 <= n <= :data:`DOT_MAX_DIM` run through
    ``a.dot(b)``: the BLAS gemm of ``a @ b`` without its ufunc dispatch,
    about half the cost of a product at dim 6, with the same bits on every
    layout the package builds.  (The two may differ on a stride-0 broadcast
    view, or on ``x @ x.T`` for a non-contiguous ``x``, where they detect
    the symmetric syrk case differently.)  1 x 1 operands keep ``@``, as
    ``dot`` multiplies them as scalars and gives -0.0 where gemm gives
    +0.0; so do stacks, which ``dot`` would contract as a tensor product.
    """
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    if a.ndim == b.ndim == 2 and 1 < a.shape[1] <= DOT_MAX_DIM:
        out = a.dot(b)
    else:
        out = a @ b
    ctr.mmm += 1 if out.ndim == 2 else len(out)
    return out


def subtract_from_identity(r: np.ndarray) -> np.ndarray:
    """Overwrite the square array ``r``, or each matrix of a ``(k, n, n)``
    stack, with ``I - r`` and return it.

    Bitwise equal to ``np.eye(n) - r``, signed zeros included, as it is
    the same subtraction: ``0.0 - r`` off the diagonal (not ``-r``, which
    would turn ``+0.0`` into ``-0.0``), ``1.0 - r`` on it.  Only for arrays
    the caller has just allocated.
    """
    return np.subtract(identity_constant(r.shape[-1]), r, out=r)


def residual_of(x: np.ndarray, a: np.ndarray, ctr: MulCounter) -> np.ndarray:
    """``I - x @ a`` in a fresh array; one counted product (k for stacked
    ``(k, n, n)`` operands)."""
    return subtract_from_identity(mat_mul(x, a, ctr))


def mat_vec(a: np.ndarray, v: np.ndarray, ctr: MulCounter) -> np.ndarray:
    """Matrix-vector product; increments ``ctr.mvm`` by exactly one."""
    if a.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {v.shape}")
    ctr.mvm += 1
    return a @ v


def fro_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def fro_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a ``(k, n, n)`` stack (a scalar for
    one matrix), each bitwise equal to :func:`fro_norm` of that matrix
    alone."""
    return np.sqrt((a * a).sum(axis=(-2, -1)))


def inf_norm(a: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(a), axis=1)))


class SpectralRadiusError(RuntimeError):
    """Power iteration failed to settle; carries the best estimate seen."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def spectral_radius(
    a: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 10000,
    seed: int = 0,
) -> float:
    """Dominant eigenvalue magnitude via norm-ratio power iteration.

    Tracks ``||a x_k||`` for unit ``x_k`` and stops once the estimate is
    stable to ``tol`` (relative) over a few consecutive iterations.  The
    norm-ratio form also handles paired ``+r/-r`` dominant eigenvalues, which
    the plain Rayleigh quotient does not.  Restarts with a fresh random
    vector if the iterate falls into the null space; raises
    :class:`SpectralRadiusError` (with the best estimate attached) when the
    iteration does not converge within ``max_iter`` steps.

    ``a`` is a real matrix and is never written.  The loop reuses two
    length-n buffers: ``a.dot(x, out=y)`` and ``sqrt(y . y)`` are the gemv
    of ``a @ x`` and the sum of ``np.linalg.norm``, so for C- or F-ordered
    float64 ``a`` the result is bitwise that of the plain loop.  Any other
    ``a`` is copied to C-ordered float64 once, as ``ndarray.dot`` would do on
    every step; for strided views that may change the last bits against
    ``a @ x``.
    """
    dim = a.shape[0]
    if a.shape != (dim, dim):
        raise ValueError("spectral_radius expects a square matrix")
    if np.iscomplexobj(a):
        raise ValueError("spectral_radius expects a real matrix")
    if a.dtype != np.float64 or not (a.flags.c_contiguous or a.flags.f_contiguous):
        a = np.ascontiguousarray(a, dtype=np.float64)
    rng = np.random.default_rng(seed)

    best = 0.0
    restarts = 0
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    y = np.empty(dim)
    prev = None
    streak = 0
    for _ in range(max_iter):
        a.dot(x, out=y)
        est = math.sqrt(y.dot(y))
        if est == 0.0:
            # x is (numerically) in the null space; either a == 0 or the
            # start vector was unlucky.
            if not np.any(a):
                return 0.0
            restarts += 1
            if restarts > 3:
                return 0.0
            x[:] = rng.standard_normal(dim)
            x /= np.linalg.norm(x)
            prev = None
            streak = 0
            continue
        best = est
        if prev is not None and abs(est - prev) <= tol * est:
            streak += 1
            if streak >= 3:
                return est
        else:
            streak = 0
        prev = est
        np.divide(y, est, out=x)
    raise SpectralRadiusError(
        f"power iteration did not converge within {max_iter} iterations "
        f"(best estimate {best:.6e})",
        best_estimate=best,
    )


# ---------------------------------------------------------------------------
# Text file format (shared with the CLI):
#   a "dim" line, then the values; blank lines and lines starting with '#'
#   are skipped.  A matrix has dim rows of dim values; a vector has dim
#   values, any number per line, each read by float() but without the
#   underscores float() accepts.  The writers put "# " before each comment
#   line, each value as "%.17g" (which reads back bitwise), single spaces
#   between the values of a row, one vector value per line, and "\n" after
#   every line.
# ---------------------------------------------------------------------------


def _data_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append(stripped)
    return lines


def _floats(line: str) -> list[float]:
    """The values of one data line, ``float()`` per token, without the PEP
    515 underscores ``float()`` accepts (it reads ``1_0`` as 10.0)."""
    if "_" in line:
        token = next(tok for tok in line.split() if "_" in tok)
        raise ValueError(f"could not convert string to float: {token!r}")
    return [float(tok) for tok in line.split()]


def _read_data(path, kind: str) -> tuple[int, list[str]]:
    """The ``dim`` of a matrix or vector file and its data lines after the
    ``dim`` line, stripped; every error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = _data_lines(fh.read())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty {kind} file")
    try:
        dim = int(lines[0]) if "_" not in lines[0] else 0
    except ValueError:
        dim = 0
    if dim < 1:
        raise ValueError(f"{path}: dim line must be a positive integer, got {lines[0]!r}")
    return dim, lines[1:]


def load_matrix(path) -> np.ndarray:
    """Read a square matrix from the plain-text format."""
    dim, lines = _read_data(path, "matrix")
    if len(lines) != dim:
        raise ValueError(f"{path}: expected {dim} data rows, got {len(lines)}")
    rows = []
    for i, line in enumerate(lines):
        try:
            row = _floats(line)
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
        if len(row) != dim:
            raise ValueError(f"{path}: row {i}: has {len(row)} entries, expected {dim}")
        rows.append(row)
    try:
        return square_matrix(rows)
    except ValueError as exc:
        # the shape is right by now, so an entry overflowed or read as nan
        i = next(i for i, row in enumerate(rows) if not all(map(math.isfinite, row)))
        raise ValueError(f"{path}: row {i}: {exc}") from None


def load_vector(path) -> np.ndarray:
    """Read a vector from the plain-text format."""
    dim, lines = _read_data(path, "vector")
    try:
        values = [value for line in lines for value in _floats(line)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(values) != dim:
        raise ValueError(f"{path}: expected {dim} entries, got {len(values)}")
    try:
        return vector(values)
    except ValueError as exc:
        # the count is right by now, so an entry overflowed or read as nan
        raise ValueError(f"{path}: {exc}") from None


def _write_header(fh, comment: str | None, dim: int) -> None:
    if comment:
        for line in comment.splitlines():
            fh.write(f"# {line}\n")
    fh.write(f"{dim}\n")


def save_matrix(path, a: np.ndarray, comment: str | None = None) -> None:
    """Write a square matrix in the plain-text format, one row at a time."""
    a = square_matrix(a)
    row_format = " ".join(["%.17g"] * a.shape[0]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, comment, a.shape[0])
        for row in a:
            fh.write(row_format % tuple(row.tolist()))


def save_vector(path, v: np.ndarray, comment: str | None = None) -> None:
    """Write a vector in the plain-text format, one value per line."""
    v = vector(v)
    with open(path, "w", encoding="utf-8") as fh:
        _write_header(fh, comment, v.size)
        fh.write("".join(["%.17g\n" % x for x in v.tolist()]))
