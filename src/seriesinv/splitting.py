"""Preconditioned splittings A = S - D for SPD matrices.

Both constructors produce the preconditioner S^-1 together with the
preconditioned residual B = S^-1 D = I - S^-1 A.  Convergence of every
iteration in this package rests on the spectral radius of B being below one,
which holds whenever 2S - A is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .matrix_core import (
    fro_norm,
    identity,
    inf_norm,
    spectral_radius,
    square_matrix,
    subtract_from_identity,
)

__all__ = [
    "NotSDDError",
    "NotSPDError",
    "Splitting",
    "check_two_s_minus_a",
    "is_positive_definite",
    "split_diagonal",
    "split_scalar",
    "with_measured_rho",
]

DIAGONAL = "diagonal"
SCALAR = "scalar"

_SYMMETRY_RTOL = 1e-10


class NotSDDError(ValueError):
    """Matrix is not strictly diagonally dominant with a positive diagonal."""


class NotSPDError(ValueError):
    """Matrix failed the symmetric positive-definiteness check."""


@dataclass(frozen=True)
class Splitting:
    """Immutable result of a splitting.

    ``precond`` is S^-1, ``residual`` is B = I - S^-1 A, and ``matrix`` keeps
    the (symmetrized) A the splitting was built from, which the series
    evaluators need for their residual shortcuts.  ``rho_hint`` is a measured
    spectral radius of B, filled in lazily by :func:`with_measured_rho`.
    """

    precond: np.ndarray
    residual: np.ndarray
    matrix: np.ndarray
    kind: str
    rho_hint: float | None = field(default=None)

    def __post_init__(self):
        diag = np.diagonal(self.precond)
        if np.count_nonzero(self.precond) == np.count_nonzero(diag):
            # Diagonal S^-1: the product is a row scaling, equal to the GEMM.
            product = diag[:, None] * self.matrix
        else:
            product = self.precond @ self.matrix
        b_check = subtract_from_identity(product)
        b_check -= self.residual
        err = fro_norm(b_check)
        if err > 1e-12 * fro_norm(self.residual) + 1e-14:
            raise ValueError(
                f"inconsistent splitting: ||(I - precond A) - residual|| = {err:.3e}"
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
    precond = np.diag(1.0 / diag)
    residual = subtract_from_identity(a / diag[:, None])
    return Splitting(
        precond=square_matrix(precond),
        residual=square_matrix(residual),
        matrix=a,
        kind=DIAGONAL,
    )


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
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not _passes_cholesky(a, 1e-12 * norm):
        raise NotSPDError("matrix is not positive definite")
    alpha = norm / 2.0 + eps
    # |a_ij| <= 2 alpha keeps a / alpha finite; only 1 / alpha can overflow.
    if 1.0 / alpha == np.inf:
        raise ValueError("matrix entries must be finite")
    return Splitting(
        precond=_frozen(identity(a.shape[0]) / alpha),
        residual=_frozen(subtract_from_identity(a / alpha)),
        matrix=a,
        kind=SCALAR,
    )


def check_two_s_minus_a(a: np.ndarray, splitting: Splitting) -> bool:
    """True iff 2S - A is positive definite.

    For SPD inputs this is equivalent to rho(B) < 1, which makes it a cheap
    convergence diagnostic that avoids estimating the spectral radius.
    """
    a = square_matrix(a)
    if a.shape != splitting.precond.shape:
        raise ValueError("dimension mismatch between matrix and splitting")
    s_mat = np.linalg.inv(splitting.precond)
    return is_positive_definite(2.0 * s_mat - a, pivot_tol=0.0)


def with_measured_rho(splitting: Splitting, tol: float = 1e-10, max_iter: int = 10000) -> Splitting:
    """Return a copy of the splitting with rho_hint measured from B."""
    rho = spectral_radius(splitting.residual, tol=tol, max_iter=max_iter)
    return replace(splitting, rho_hint=rho)
