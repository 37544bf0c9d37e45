"""The preconditioned splitting A = S - D of an SPD matrix.

S is diagonal, so a splitting is defined by A and the diagonal s of S; the
preconditioner S^-1 and the preconditioned residual B = S^-1 D = I - S^-1 A
are derived from them once.  Convergence of every iteration in this package
rests on the spectral radius of B being below one.  :func:`split_scalar`
takes S = alpha I, so its B is symmetric and rho(B) < 1 for every SPD A.

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


class NotSPDError(ValueError):
    """Matrix failed the symmetric positive-definiteness check."""


@dataclass(frozen=True, eq=False)
class Splitting:
    """Immutable splitting A = S - D with S = diag(``scale``).

    ``matrix`` is the (symmetrized) A the splitting was built from, which the
    series evaluators need for their residual shortcuts; it is taken as
    given, validated by :func:`split_scalar`.  ``precond`` is S^-1 and
    ``residual`` is B = I - S^-1 A, both derived from ``matrix`` and
    ``scale`` when the splitting is built and read-only, so they agree by
    construction.  The only check is on ``scale``: one positive, finite
    entry per row of A, with a finite inverse.  For a ``(k, n, n)`` stack
    of matrices every field is a stack: ``scale`` is ``(k, n)``, ``precond``
    and ``residual`` are ``(k, n, n)``.  Splittings compare and hash by
    identity, as their fields are arrays.
    """

    matrix: np.ndarray
    scale: np.ndarray
    precond: np.ndarray = field(init=False)
    residual: np.ndarray = field(init=False)

    def __post_init__(self):
        s = _frozen(np.array(self.scale, dtype=np.float64))
        fits = s.shape == self.matrix.shape[:-1]
        # 1 / s is finite exactly when s > 2**-1024.  One test passes a
        # valid scale; the message is chosen only on failure.
        if not (fits and ((s > 2.0**-1024) & (s < np.inf)).all()):
            if fits and ((s > 0.0) & (s < np.inf)).all():
                raise ValueError("S^-1 overflows: matrix entries must be finite")
            raise ValueError("scale must hold one positive, finite entry per row of the matrix")
        inv = 1.0 / s
        precond = identity_constant(s.shape[-1]) * inv[..., None, :]
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "precond", _frozen(precond))
        object.__setattr__(
            self, "residual", _frozen(subtract_from_identity(self.matrix / s[..., None]))
        )


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
    # Below 2**1023 no sum of two entries can overflow; at or above, an
    # overflow is reported as the error below, not as numpy's warning.
    if (top >= 2.0**1023).any():
        with np.errstate(over="ignore"):
            sym = (a + a.swapaxes(-1, -2)) / 2.0
        if not np.isfinite(sym).all():
            raise ValueError("matrix entries must be finite")
    else:
        sym = (a + a.swapaxes(-1, -2)) / 2.0
    return _frozen(sym)


def is_positive_definite(a: np.ndarray) -> bool:
    """Positive definiteness via a Cholesky attempt.

    A pivot at or below ``1e-12 * ||a||_inf`` counts as failure, so
    near-singular matrices are reported as not PD rather than factored
    through rounding noise.
    """
    a = square_matrix(a)
    a = (a + a.T) / 2.0
    return _passes_cholesky(a, inf_norm(a))


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
    ok = np.logical_and(0.0 < eps, eps < np.inf)
    if not ok.all():
        raise ValueError(f"eps must be positive and finite, got {np.extract(~ok, eps)[0]}")
    if not _passes_cholesky(a, norm):
        raise NotSPDError("matrix is not positive definite")
    # |a_ij| <= 2 alpha keeps a / alpha finite; Splitting rejects an
    # alpha whose inverse overflows.
    alpha = norm / 2.0 + eps
    return Splitting(a, alpha[..., None].repeat(a.shape[-1], axis=-1))
