"""The preconditioned splitting A = S - D of an SPD matrix, with S = alpha I.

A splitting is defined by A and the scalar alpha; S^-1 = I / alpha and the
preconditioned residual B = S^-1 D = I - A / alpha are derived from them
once.  Every iteration in this package converges because rho(B) < 1, which
:func:`split_scalar` ensures for every SPD A by taking alpha just above
||A||_inf / 2; its B is symmetric, as A is symmetrized and S is scalar.

A splitting may hold a ``(k, n, n)`` stack of k independent matrices:
:func:`split_scalar` splits a whole stack in one pass, every check a
reduction over each matrix, and each instance of the result is bitwise equal
to the splitting of that matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import (
    fro_norms,
    identity_constant,
    inf_norm,
    square_matrix,
    square_stack,
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
        if not (fits and ((alpha > 2.0**-1024) & (alpha < np.inf)).all()):
            if fits and ((alpha > 0.0) & (alpha < np.inf)).all():
                raise ValueError("S^-1 overflows: matrix entries must be finite")
            raise ValueError("alpha must hold one positive, finite value per matrix")
        precond = identity_constant(self.matrix.shape[-1]) * (1.0 / alpha)[..., None, None]
        residual = subtract_from_identity(self.matrix / alpha[..., None, None])
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "precond", _frozen(precond))
        object.__setattr__(self, "residual", _frozen(residual))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array this module just built read-only, without the copy and
    the checks of :func:`square_matrix`."""
    arr.flags.writeable = False
    return arr


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """Reject clearly asymmetric input, then symmetrize exactly.

    ``a`` is a validated matrix or stack; each matrix is tested on its own,
    ||A - A^T||_F against ||A||_F, both taken on A scaled by a power of two
    that brings max|A| into [1/2, 1).  The scaling is exact, so the test
    decides as it would on A itself wherever those norms neither overflow
    nor underflow, and it cannot overflow however large the entries are.
    """
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
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
    (``norm`` a float, or one per matrix of the stack)."""
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return False
    # The pivots are positive, so the smallest one of each matrix decides.
    smallest = lower.diagonal(axis1=-2, axis2=-1).min(axis=-1)
    return bool((smallest**2 > _PIVOT_RTOL * norm).all())


def split_scalar(a: np.ndarray, eps: float | None = None) -> Splitting:
    """Scalar preconditioner S^-1 = I/alpha with alpha = ||A||_inf / 2 + eps.

    Works for any SPD matrix, and for a ``(k, n, n)`` stack of them: each
    matrix gets its own alpha and passes the same checks, and a stack with
    one failing matrix raises the error that matrix alone would.  ``eps``
    defaults to ``1e-3 * ||A||_inf``; any positive value keeps rho(B) < 1,
    and smaller values give a smaller radius for ill-conditioned A.
    """
    a = _symmetrized(square_stack(a))
    norm = np.abs(a).sum(axis=-1).max(axis=-1)  # ||A||_inf of each matrix
    if eps is None:
        eps = 1e-3 * norm
    # norm is finite, so norm / 2 + eps cannot overflow while eps <= DBL_MAX / 2
    if not np.logical_and(0.0 < eps, eps <= _HALF_MAX).all():
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
