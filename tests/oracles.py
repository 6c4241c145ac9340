"""Seed implementations kept as pinning oracles for the blocked kernels.

The blocked Householder QR and the array-backed incremental basis in
:mod:`repro.core.linalg` reorder floating-point sums relative to the
original one-reflection-per-column and modified-Gram–Schmidt loops.
Those loops live here, verbatim, so the equivalence tests can pin the
fast paths to them.  The paper's Householder least-squares solve and the
seed's minimum-norm phase-2 solve live here too: the library solves both
LIA phases another way, and the tests keep them as references.  Nothing
outside the test suite calls these.
"""

from typing import List, Tuple

import numpy as np

from repro.core.linalg import (
    IncrementalColumnBasis,
    back_substitution,
    householder_qr,
)


def householder_qr_reference(
    matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed (unblocked, one reflection per column) Householder QR."""
    A = np.array(matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    m, n = A.shape
    if m < n:
        raise ValueError(f"householder_qr requires m >= n, got {m} x {n}")
    vs: List[np.ndarray] = []
    for k in range(n):
        x = A[k:, k].copy()
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            vs.append(np.zeros_like(x))
            continue
        v = x.copy()
        v[0] += np.sign(x[0]) * norm_x if x[0] != 0 else norm_x
        v /= np.linalg.norm(v)
        vs.append(v)
        A[k:, k:] -= 2.0 * np.outer(v, v @ A[k:, k:])
    R = np.triu(A[:n, :])
    Q = np.zeros((m, n), dtype=np.float64)
    Q[:n, :n] = np.eye(n)
    for k in range(n - 1, -1, -1):
        v = vs[k]
        Q[k:, :] -= 2.0 * np.outer(v, v @ Q[k:, :])
    return Q, R


def try_add_reference(basis: IncrementalColumnBasis, column: np.ndarray) -> bool:
    """The seed per-vector modified-Gram–Schmidt offer into *basis*.

    Same contract as :meth:`IncrementalColumnBasis.try_add`: add *column*
    if it enlarges the span and return whether it did.
    """
    v, norm0 = basis._prepare(column)
    if norm0 == 0.0:
        return False
    vectors = [basis._storage[:, j] for j in range(basis.rank)]
    for b in vectors:
        v -= (b @ v) * b
    for b in vectors:
        v -= (b @ v) * b
    norm1 = float(np.linalg.norm(v))
    if norm1 <= basis.rel_tol * norm0:
        return False
    return basis._accept(v, norm1)


def solve_least_squares_qr(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``matrix @ x ~= rhs`` via Householder QR.

    The paper's phase-1/phase-2 solver (O(n_p^2 n_c^2 - n_c^3 / 3) there;
    same complexity class here, on the blocked kernel).  On a
    rank-deficient matrix it returns *a* least-squares solution, not the
    minimum-norm one.
    """
    A = np.asarray(matrix, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if A.shape[0] != b.shape[0]:
        raise ValueError("matrix and rhs row counts differ")
    Q, R = householder_qr(A)
    return back_substitution(R, Q.T @ b)


def reduced_lstsq(routing_matrix, path_log_rates, kept_columns) -> np.ndarray:
    """The seed's phase-2 solve: minimum-norm lstsq on ``R*``, clipped to
    ``<= 0`` and re-embedded with removed columns at ``log 1 = 0``."""
    R = np.asarray(routing_matrix, dtype=np.float64)
    x_star, *_ = np.linalg.lstsq(R[:, kept_columns], path_log_rates, rcond=None)
    x_full = np.zeros(R.shape[1])
    x_full[kept_columns] = np.minimum(x_star, 0.0)
    return x_full
