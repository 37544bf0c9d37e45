"""Preconditioned splittings A = S - D for SPD matrices.

Both splittings here take S diagonal, so a splitting is defined by A and the
diagonal s of S; the preconditioner S^-1 and the preconditioned residual
B = S^-1 D = I - S^-1 A are derived from them once.  Convergence of every
iteration in this package rests on the spectral radius of B being below one,
which holds whenever 2S - A is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrix_core import fro_norm, inf_norm, square_matrix, subtract_from_identity

__all__ = [
    "NotSDDError",
    "NotSPDError",
    "Splitting",
    "check_two_s_minus_a",
    "is_positive_definite",
    "split_diagonal",
    "split_scalar",
]

DIAGONAL = "diagonal"
SCALAR = "scalar"

_SYMMETRY_RTOL = 1e-10


class NotSDDError(ValueError):
    """Matrix is not strictly diagonally dominant with a positive diagonal."""


class NotSPDError(ValueError):
    """Matrix failed the symmetric positive-definiteness check."""


@dataclass(frozen=True, eq=False)
class Splitting:
    """Immutable splitting A = S - D with S = diag(``scale``).

    ``matrix`` is the (symmetrized) A the splitting was built from, which the
    series evaluators need for their residual shortcuts; it is taken as
    given, validated by the constructors below.  ``precond`` is S^-1 and
    ``residual`` is B = I - S^-1 A, both derived from ``matrix`` and
    ``scale`` when the splitting is built and read-only, so they agree by
    construction.  The only check is on ``scale``: one positive, finite
    entry per row of A, with a finite inverse.  Splittings compare and hash
    by identity, as their fields are arrays.
    """

    matrix: np.ndarray
    scale: np.ndarray
    kind: str
    precond: np.ndarray = field(init=False)
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        s = _frozen(np.array(self.scale, dtype=np.float64))
        if s.shape != self.matrix.shape[:1] or not np.all((s > 0.0) & (s < np.inf)):
            raise ValueError("scale must hold one positive, finite entry per row of the matrix")
        with np.errstate(over="ignore"):
            inv = 1.0 / s
        if not np.all(inv < np.inf):
            raise ValueError("S^-1 overflows: matrix entries must be finite")
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "precond", _frozen(np.diag(inv)))
        object.__setattr__(
            self, "residual", _frozen(subtract_from_identity(self.matrix / s[:, None]))
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array this module just built read-only, without the copy and
    the checks of :func:`square_matrix`."""
    arr.flags.writeable = False
    return arr


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    """Reject clearly asymmetric input, then symmetrize exactly."""
    a = square_matrix(a)
    norm_a = fro_norm(a)
    if fro_norm(a - a.T) > _SYMMETRY_RTOL * max(norm_a, 1e-300):
        raise ValueError("matrix must be symmetric")
    sym = (a + a.T) / 2.0
    # A finite ||A||_F bounds every entry far below overflow; only a huge A
    # can overflow in a + a.T.
    if norm_a == np.inf and not np.all(np.isfinite(sym)):
        raise ValueError("matrix entries must be finite")
    return _frozen(sym)


def is_positive_definite(a: np.ndarray, pivot_tol: float | None = None) -> bool:
    """Positive definiteness via a Cholesky attempt.

    A pivot at or below ``pivot_tol`` (default ``1e-12 * ||a||_inf``) counts
    as failure, so near-singular matrices are reported as not PD rather than
    factored through rounding noise.
    """
    a = square_matrix(a)
    a = (a + a.T) / 2.0
    if pivot_tol is None:
        pivot_tol = 1e-12 * inf_norm(a)
    return _passes_cholesky(a, pivot_tol)


def _passes_cholesky(sym: np.ndarray, pivot_tol: float) -> bool:
    """True iff LAPACK factors the symmetric ``sym`` and every pivot
    ``diag(L)**2`` is above ``pivot_tol``."""
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return False
    # The pivots are positive, so the smallest one decides.
    return bool(np.diagonal(lower).min() ** 2 > pivot_tol)


def split_diagonal(a: np.ndarray) -> Splitting:
    """Split off the diagonal of a symmetric, strictly diagonally dominant A.

    S = diag(A), so S^-1 is formed entrywise and B = I - S^-1 A.  Strict
    diagonal dominance with a positive diagonal guarantees rho(B) < 1.
    """
    a = _check_symmetric(a)
    diag = np.diag(a)
    if np.any(diag <= 0.0):
        raise NotSDDError("diagonal entries must be positive")
    off_sums = np.sum(np.abs(a), axis=1) - np.abs(diag)
    if np.any(np.abs(diag) <= off_sums):
        raise NotSDDError("matrix is not strictly diagonally dominant")
    return Splitting(a, diag, DIAGONAL)


def split_scalar(a: np.ndarray, eps: float | None = None) -> Splitting:
    """Scalar preconditioner S^-1 = I/alpha with alpha = ||A||_inf / 2 + eps.

    Works for any SPD matrix.  ``eps`` defaults to ``1e-3 * ||A||_inf``; any
    positive value keeps rho(B) < 1, and smaller values give a smaller radius
    for ill-conditioned A.
    """
    a = _check_symmetric(a)
    norm = inf_norm(a)
    if eps is None:
        eps = 1e-3 * norm
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not _passes_cholesky(a, 1e-12 * norm):
        raise NotSPDError("matrix is not positive definite")
    # |a_ij| <= 2 alpha keeps a / alpha finite; Splitting rejects an
    # alpha whose inverse overflows.
    return Splitting(a, np.full(a.shape[0], norm / 2.0 + eps), SCALAR)


def check_two_s_minus_a(a: np.ndarray, splitting: Splitting) -> bool:
    """True iff 2S - A is positive definite.

    For SPD inputs this is equivalent to rho(B) < 1, which makes it a cheap
    convergence diagnostic that avoids estimating the spectral radius.
    """
    a = square_matrix(a)
    if a.shape != splitting.matrix.shape:
        raise ValueError("dimension mismatch between matrix and splitting")
    return is_positive_definite(np.diag(2.0 * splitting.scale) - a, pivot_tol=0.0)
