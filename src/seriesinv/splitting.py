"""The preconditioned splitting A = S - D of an SPD matrix, with S = alpha I.

A splitting is defined by A and the scalar alpha; S^-1 = I / alpha and the
preconditioned residual B = S^-1 D = I - A / alpha are derived from them
once.  Every iteration in this package converges because rho(B) < 1, which
:func:`split_scalar` ensures for every SPD A by taking alpha just above
||A||_inf / 2; its B is symmetric, as A is symmetrized and S is scalar.

A splitting may hold a ``(k, n, n)`` stack of k independent matrices:
:func:`split_scalar` splits a whole stack in one call, every check a
reduction over each matrix, and each instance of the result is bitwise equal
to the splitting of that matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import (
    _square_copy,
    fro_norms,
    identity_constant,
    inf_norm,
    square_matrix,
    subtract_from_identity,
)

__all__ = [
    "NotSPDError",
    "Splitting",
    "is_positive_definite",
    "split_scalar",
]

_SYMMETRY_RTOL = 1e-10
# A Cholesky pivot at or below this times ||A||_inf counts as failure.
_PIVOT_RTOL = 1e-12
_HALF_MAX = np.finfo(np.float64).max / 2.0


class NotSPDError(ValueError):
    """Matrix failed the symmetric positive-definiteness check."""


@dataclass(frozen=True, eq=False)
class Splitting:
    """Immutable splitting A = S - D with S = ``alpha`` I.

    ``matrix`` is the (symmetrized) A, which the series evaluators need for
    their residual shortcuts; it is taken as given, validated by
    :func:`split_scalar`.  ``precond`` = S^-1 and ``residual`` = B are
    derived from ``matrix`` and ``alpha`` when the splitting is built,
    read-only, so they agree by construction.  The only check is on
    ``alpha``: one positive, finite value per matrix (0-d, or ``(k,)`` for
    a ``(k, n, n)`` stack), with a finite inverse.  Splittings compare and
    hash by identity, as their fields are arrays.
    """

    matrix: np.ndarray
    alpha: np.ndarray
    precond: np.ndarray = field(init=False)
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        alpha = _frozen(np.array(self.alpha, dtype=np.float64))
        fits = alpha.shape == self.matrix.shape[:-2]
        # 1 / alpha is finite exactly when alpha > 2**-1024.  One test
        # passes a valid alpha; the message is chosen only on failure.
        if not (fits and all(2.0**-1024 < s < np.inf for s in alpha.flat)):
            if fits and all(0.0 < s < np.inf for s in alpha.flat):
                raise ValueError("S^-1 overflows: matrix entries must be finite")
            raise ValueError("alpha must hold one positive, finite value per matrix")
        # One column of alpha per matrix builds both S^-1 and B.
        col = alpha[..., None, None]
        precond = identity_constant(self.matrix.shape[-1]) * (1.0 / col)
        residual = subtract_from_identity(self.matrix / col)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "precond", _frozen(precond))
        object.__setattr__(self, "residual", _frozen(residual))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array this module just built read-only, without the copy and
    the checks of :func:`square_matrix`."""
    arr.flags.writeable = False
    return arr


def _equals_transpose(a: np.ndarray) -> bool:
    """Whether every matrix equals its transpose bit for bit.  Signed zeros
    compare by their bits, as (0 + -0) / 2 is 0."""
    bits = a.view(np.int64)
    return (bits == bits.swapaxes(-1, -2)).all()


def _clean_norms(a: np.ndarray) -> np.ndarray | None:
    """||A||_inf of each matrix of a bitwise symmetric ``a`` when every
    entry is finite and below 2**1023 / n, else None: one ``|a|`` gives
    both.  ``|a|`` is dropped on return, before the checks and arrays that
    follow allocate theirs: at n = 512, keeping it alive through them
    doubled the page faults of a split."""
    mags = np.abs(a)
    # a NaN fails the comparison, as an infinity does
    if mags.max() < 2.0**1023 / a.shape[-1]:
        return mags.sum(axis=-1).max(axis=-1)
    return None


def _symmetrized(a: np.ndarray, exact: bool) -> np.ndarray:
    """Check an A that :func:`split_scalar` did not find clean, and
    symmetrize it exactly.

    ``a`` is a fresh read-only matrix or stack of a valid shape, and
    ``exact`` tells whether every matrix equals its transpose bit for bit.
    The checks run in this order, each naming its fault: every entry
    finite; unless ``exact``, the symmetry tolerance test; then, where an
    entry reaches 2**1023 / n, that (A + A^T) / 2 and ||A||_inf are finite.
    The tolerance test compares ||A - A^T||_F with ||A||_F for each matrix,
    both taken on A scaled by a power of two that brings max|A| into
    [1/2, 1).  The scaling is exact, so the test decides as it would on A
    itself wherever those norms neither overflow nor underflow, and it
    cannot overflow however large the entries are.
    """
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
    if not (top < np.inf).all():  # a NaN fails too
        raise ValueError("matrix entries must be finite")
    if not exact:
        unit = np.ldexp(a, -np.frexp(top)[1])
        skew = unit - unit.swapaxes(-1, -2)
        if (fro_norms(skew) > _SYMMETRY_RTOL * fro_norms(unit)).any():
            raise ValueError("matrix must be symmetric")
    # From 2**1023 / n, A + A^T or ||A||_inf may overflow: an error, not a warning.
    if (top >= 2.0**1023 / a.shape[-1]).any():
        with np.errstate(over="ignore"):
            sym = (a + a.swapaxes(-1, -2)) / 2.0
            rows = np.abs(sym).sum(axis=-1)
        if not np.isfinite(sym).all():
            raise ValueError("matrix entries must be finite")
        if not np.isfinite(rows).all():
            raise ValueError("matrix entries too large: ||A||_inf overflows")
    else:
        sym = (a + a.swapaxes(-1, -2)) / 2.0
    return _frozen(sym)


def is_positive_definite(a: np.ndarray) -> bool:
    """Positive definiteness via a Cholesky attempt.

    A pivot at or below ``1e-12 * ||a||_inf`` counts as failure, so
    near-singular matrices, and those whose ||a||_inf overflows, are
    reported as not PD rather than factored through rounding noise.
    """
    a = square_matrix(a)
    with np.errstate(over="ignore"):
        a = (a + a.T) / 2.0
        norm = inf_norm(a)
    return norm < np.inf and _passes_cholesky(a, norm)


def _passes_cholesky(sym: np.ndarray, norm: float | np.ndarray) -> bool:
    """True iff LAPACK factors the symmetric ``sym`` (each matrix of a
    stack) and every pivot ``diag(L)**2`` is above ``_PIVOT_RTOL * norm``
    (``norm`` a float, or one per matrix of the stack).

    ``sym`` equals its transpose bit for bit, so LAPACK gets the transposed
    view: numpy copies its input into column-major order, and from that
    view the copy reads memory in order; the factor is the same.
    """
    try:
        lower = np.linalg.cholesky(sym.swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        return False
    # The pivots are positive, so the smallest one of each matrix decides.
    smallest = lower.diagonal(axis1=-2, axis2=-1).min(axis=-1)
    return all((smallest * smallest > _PIVOT_RTOL * norm).flat)


def split_scalar(a: np.ndarray, eps: float | None = None) -> Splitting:
    """Scalar preconditioner S^-1 = I/alpha with alpha = ||A||_inf / 2 + eps.

    Works for any SPD matrix, and for a ``(k, n, n)`` stack of them: each
    matrix gets its own alpha and passes the same checks, and a stack with
    one failing matrix raises the error that matrix alone would.  ``eps``
    defaults to ``1e-3 * ||A||_inf``; any positive value keeps rho(B) < 1,
    and smaller values give a smaller radius for ill-conditioned A.  Only
    a given ``eps`` is checked: the default is 0 only when it underflows,
    and such an A fails a later check (not positive definite, or S^-1
    overflows).

    A clean A is decided in one pass: it is finite, equal to its transpose
    bit for bit, so its own symmetrization, and has every entry below
    2**1023 / n, so that A + A^T and ||A||_inf cannot overflow; one
    ``|A|`` serves that test and ||A||_inf.  Any other A goes through the
    full checks of :func:`_symmetrized`, which name its fault.  Then, for
    every A: the eps check, the Cholesky test and the check on alpha.
    """
    a = _frozen(_square_copy(a, (2, 3)))
    exact = _equals_transpose(a)
    norm = _clean_norms(a) if exact else None
    if norm is None:
        a = _symmetrized(a, exact)
        norm = np.abs(a).sum(axis=-1).max(axis=-1)  # ||A||_inf of each matrix
    if eps is None:
        eps = 1e-3 * norm
    elif not np.logical_and(0.0 < eps, eps <= _HALF_MAX).all():
        # norm is finite, so norm / 2 + eps cannot overflow while eps <= DBL_MAX / 2
        _check_eps(eps, norm)
    if not _passes_cholesky(a, norm):
        raise NotSPDError("matrix is not positive definite")
    # |a_ij| <= 2 alpha keeps a / alpha finite; Splitting rejects an
    # alpha whose inverse overflows.
    return Splitting(a, norm / 2.0 + eps)


def _check_eps(eps, norm: np.ndarray) -> None:
    """Raise for an eps that is not positive and finite, or with which
    alpha = ||A||_inf / 2 + eps overflows for some matrix."""
    bad = ~np.logical_and(0.0 < eps, eps < np.inf)
    if bad.any():
        raise ValueError(f"eps must be positive and finite, got {np.extract(bad, eps)[0]}")
    with np.errstate(over="ignore"):
        bad = np.isinf(norm / 2.0 + eps)
    if bad.any():
        eps = np.extract(bad, np.broadcast_to(eps, bad.shape))[0]
        raise ValueError(f"eps too large: ||A||_inf / 2 + eps overflows, got {eps}")
