"""Kernel functions matching the paper's Section 3.2 definitions.

- linear: ``k(x, z) = x·z``
- polynomial (degree 2): ``k(x, z) = (gamma · x·z + coef0)^2``
- RBF: ``k(x, z) = exp(-gamma · ||x - z||^2)``

All kernels return the Gram block ``K[i, j] = k(A_i, B_j)`` and accept
either 2-D dense row-example matrices or a pair of implicit
:class:`~repro.ml.sparse.FactorizedMatrix` operands.  For implicit
operands the inner products reduce to code-equality counts (one-hot
rows share a 1 exactly where their codes agree), so no dense encoding
is ever materialised; mixing an implicit operand with a dense matrix is
rejected.
"""

from __future__ import annotations

import numpy as np

from repro.ml.sparse import FactorizedMatrix


def _implicit_pair(A, B) -> bool:
    """Whether the operands are a (valid) pair of implicit operands."""
    a, b = isinstance(A, FactorizedMatrix), isinstance(B, FactorizedMatrix)
    if a != b:
        raise TypeError(
            "kernel operands must both be dense or both be FactorizedMatrix; "
            f"got {type(A).__name__} and {type(B).__name__}"
        )
    return a


def linear_kernel(A, B) -> np.ndarray:
    """Gram block of the linear kernel."""
    if _implicit_pair(A, B):
        return A.match_counts(B)
    return A @ B.T


def polynomial_kernel(
    A, B, gamma: float = 1.0, degree: int = 2, coef0: float = 1.0
) -> np.ndarray:
    """Gram block of the polynomial kernel ``(gamma x·z + coef0)^degree``."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return (gamma * linear_kernel(A, B) + coef0) ** degree


def rbf_kernel(A, B, gamma: float = 1.0) -> np.ndarray:
    """Gram block of the Gaussian RBF kernel ``exp(-gamma ||x-z||^2)``."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if _implicit_pair(A, B):
        return np.exp(-gamma * A.squared_distances(B))
    sq_a = np.sum(A * A, axis=1)[:, np.newaxis]
    sq_b = np.sum(B * B, axis=1)[np.newaxis, :]
    sq_dist = np.maximum(sq_a + sq_b - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * sq_dist)


def kernel_function(name: str, gamma: float = 1.0, degree: int = 2, coef0: float = 1.0):
    """Resolve a kernel name to a two-argument Gram-block function."""
    if name == "linear":
        return linear_kernel
    if name in ("poly", "polynomial", "quadratic"):
        return lambda A, B: polynomial_kernel(A, B, gamma=gamma, degree=degree, coef0=coef0)
    if name == "rbf":
        return lambda A, B: rbf_kernel(A, B, gamma=gamma)
    raise ValueError(
        f"unknown kernel {name!r}; choose from 'linear', 'poly', 'rbf'"
    )
