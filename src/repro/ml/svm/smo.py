"""Sequential minimal optimisation for the soft-margin SVM dual.

Solves::

    max_a  sum_i a_i - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t.   0 <= a_i <= C,  sum_i a_i y_i = 0

with Platt-style SMO: pick a KKT-violating multiplier, pair it with a
second one (maximal |E_i - E_j|, falling back to random), and solve the
two-variable subproblem analytically.  An error cache keeps passes
vectorised; the Gram matrix is computed once up front, which is fine at
the dataset scales this reproduction runs.

The loop itself is scalar Python: labels, multipliers, the Gram
diagonal and the entries it touches are read as Python floats, which
are the same IEEE-754 doubles as numpy float64 scalars, so every
expression rounds exactly as it would over numpy scalars at a fraction
of the per-operation cost.  The non-bound candidates for the
second-choice heuristic depend on ``alpha`` alone, so they are
recomputed only after an accepted update rather than on every lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import ensure_rng


@dataclass
class SMOResult:
    """Solution of the dual problem."""

    alpha: np.ndarray
    bias: float
    n_iterations: int
    #: Whether the pass rule (``max_passes`` quiet passes) ended the
    #: solve, rather than the ``max_iterations`` cap.
    converged: bool


def solve_smo(
    gram: np.ndarray,
    y_signed: np.ndarray,
    C: float,
    tol: float = 1e-3,
    max_passes: int = 5,
    max_iterations: int = 20_000,
    seed: int | np.random.Generator | None = 0,
) -> SMOResult:
    """Run SMO on a precomputed Gram matrix.

    Parameters
    ----------
    gram:
        ``(n, n)`` float64 kernel matrix.
    y_signed:
        Labels in {-1, +1}.
    C:
        Box constraint (misclassification cost).
    tol:
        KKT violation tolerance.
    max_passes:
        Number of consecutive full passes without any update before
        declaring convergence (Platt's simplified stopping rule).
    max_iterations:
        Cap on multipliers examined (one per index visited), a safety
        net for pathological gamma/C combinations in grid search.  It
        is checked only between full passes, so a run can exceed it by
        up to ``n - 1``.
    seed:
        Randomness for the fallback second-choice heuristic.
    """
    n = gram.shape[0]
    if gram.shape != (n, n):
        raise ValueError(f"gram must be square, got {gram.shape}")
    y = np.asarray(y_signed, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("y_signed length must match gram")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("y_signed must be coded in {-1, +1}")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    rng = ensure_rng(seed)

    alpha = np.zeros(n)
    bias = 0.0
    # errors[i] = f(x_i) - y_i, maintained incrementally.
    errors = -y.copy()
    # Python-float mirrors of the scalars the loop reads: the same
    # IEEE-754 doubles as numpy float64 scalars, without their overhead.
    ys = y.tolist()
    alphas = alpha.tolist()
    diag = gram.diagonal().tolist()
    error_at = errors.item
    gram_at = gram.item
    # Non-bound multipliers depend on alpha alone: refreshed per update.
    non_bound = ((alpha > 0) & (alpha < C)).nonzero()[0]
    step, step_j = np.empty(n), np.empty(n)
    passes = 0
    iterations = 0

    while passes < max_passes and iterations < max_iterations:
        changed = 0
        for i in range(n):
            e_i = error_at(i)
            y_i = ys[i]
            a_i_old = alphas[i]
            r_i = e_i * y_i
            if not ((r_i < -tol and a_i_old < C) or (r_i > tol and a_i_old > 0)):
                continue
            candidates = non_bound[non_bound != i]
            if candidates.size:
                j = int(candidates[np.abs(errors[candidates] - e_i).argmax()])
            else:
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
            e_j = error_at(j)
            y_j = ys[j]
            a_j_old = alphas[j]
            if y_i != y_j:
                low = max(0.0, a_j_old - a_i_old)
                high = min(C, C + a_j_old - a_i_old)
            else:
                low = max(0.0, a_i_old + a_j_old - C)
                high = min(C, a_i_old + a_j_old)
            if high - low < 1e-12:
                continue
            k_ij = gram_at(i, j)
            k_ii, k_jj = diag[i], diag[j]
            eta = 2.0 * k_ij - k_ii - k_jj
            if eta >= 0:
                continue
            a_j = a_j_old - y_j * (e_i - e_j) / eta
            a_j = min(high, max(low, a_j))
            if abs(a_j - a_j_old) < 1e-7 * (a_j + a_j_old + 1e-7):
                continue
            a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j
            # Read back: an int C clipped into a_j is stored as float64.
            alphas[i], alphas[j] = alpha.item(i), alpha.item(j)
            non_bound = ((alpha > 0) & (alpha < C)).nonzero()[0]

            b1 = (
                bias
                - e_i
                - y_i * (a_i - a_i_old) * k_ii
                - y_j * (a_j - a_j_old) * k_ij
            )
            b2 = (
                bias
                - e_j
                - y_i * (a_i - a_i_old) * k_ij
                - y_j * (a_j - a_j_old) * k_jj
            )
            if 0 < a_i < C:
                new_bias = b1
            elif 0 < a_j < C:
                new_bias = b2
            else:
                new_bias = 0.5 * (b1 + b2)
            delta_i = y_i * (a_i - a_i_old)
            delta_j = y_j * (a_j - a_j_old)
            # errors += delta_i * K_i + delta_j * K_j + (new_bias - bias),
            # the same operations in the same order, in reused buffers.
            np.multiply(delta_i, gram[i], out=step)
            np.multiply(delta_j, gram[j], out=step_j)
            step += step_j
            step += new_bias - bias
            errors += step
            bias = new_bias
            changed += 1
        # Every index is examined once per pass.
        iterations += n
        passes = passes + 1 if changed == 0 else 0

    return SMOResult(
        alpha=alpha,
        bias=bias,
        n_iterations=iterations,
        converged=passes >= max_passes,
    )
