"""Reference implementations the tests pin the library to.

* The paper's Householder QR, blocked (compact WY) and unblocked, the
  zero-pivot-tolerant back-substitution and the Householder
  least-squares solve built from them.  The library factorizes with
  LAPACK; these stay as references.
* The seed's modified-Gram–Schmidt basis offer, against which the
  array-backed incremental basis in :mod:`repro.core.linalg` is pinned.
* The seed's minimum-norm phase-2 solve.
* The per-step Gilbert chain and the float sparse-product probe
  measurement, against which the packed sampling of
  :mod:`repro.lossmodel.gilbert` and the bitwise measurement of
  :mod:`repro.probing.prober` are pinned bit for bit.

Nothing outside the test suite calls these.
"""

from typing import List, Tuple

import numpy as np
from scipy import linalg as scipy_linalg

from repro.core.linalg import IncrementalColumnBasis
from repro.utils.rng import as_rng

#: Panel width of the blocked Householder QR.
DEFAULT_BLOCK_SIZE = 32


def householder_panel(
    A: np.ndarray,
    V: np.ndarray,
    betas: np.ndarray,
    k0: int,
    k1: int,
) -> np.ndarray:
    """Factorize panel columns ``[k0, k1)`` of *A* in place; return ``T``.

    One Householder reflector per column (written into ``V``/``betas``)
    applied to the remaining panel columns, then the forward
    accumulation of the compact-WY ``T`` with
    ``H_{k0} ... H_{k1-1} = I - Vp T Vp^T``.
    """
    for k in range(k0, k1):
        x = A[k:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            V[k:, k] = 0.0
            betas[k] = 0.0
            continue
        v = x.copy()
        v[0] += np.sign(x[0]) * norm_x if x[0] != 0 else norm_x
        v /= np.linalg.norm(v)
        beta = 2.0
        V[k:, k] = v
        betas[k] = beta
        A[k:, k:k1] -= beta * np.outer(v, v @ A[k:, k:k1])
    nb = k1 - k0
    Vp = V[k0:, k0:k1]
    T = np.zeros((nb, nb), dtype=np.float64)
    for j in range(nb):
        beta = betas[k0 + j]
        if j and beta:
            T[:j, j] = -beta * (T[:j, :j] @ (Vp[:, :j].T @ Vp[:, j]))
        T[j, j] = beta
    return T


def householder_qr(
    matrix: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compact blocked Householder QR: ``(Q, R)`` with ``Q`` m x n, ``R`` n x n.

    Golub & Van Loan algorithm 5.2.2 with the compact-WY representation:
    each panel of ``block_size`` reflections is aggregated into
    ``P = I - V T V^T`` and applied to the trailing matrix (and later to
    the identity block for thin ``Q``) as two matrix products.  Requires
    ``m >= n``.
    """
    A = np.array(matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    m, n = A.shape
    if m < n:
        raise ValueError(f"householder_qr requires m >= n, got {m} x {n}")
    if block_size < 1:
        raise ValueError("block_size must be positive")

    V = np.zeros((m, n), dtype=np.float64)
    betas = np.zeros(n, dtype=np.float64)
    panels: List[Tuple[int, int, np.ndarray]] = []  # (k0, k1, T)

    for k0 in range(0, n, block_size):
        k1 = min(k0 + block_size, n)
        T = householder_panel(A, V, betas, k0, k1)
        panels.append((k0, k1, T))
        # Blocked trailing update:  A := P^T A = A - V T^T (V^T A).
        if k1 < n:
            Vp = V[k0:, k0:k1]
            W = Vp.T @ A[k0:, k1:]
            A[k0:, k1:] -= Vp @ (T.T @ W)

    R = np.triu(A[:n, :])

    # Thin Q = P_0 P_1 ... P_last applied to the identity block, so the
    # panels are applied in reverse order:  Q := Q - V T (V^T Q).
    Q = np.zeros((m, n), dtype=np.float64)
    Q[:n, :n] = np.eye(n)
    for k0, k1, T in reversed(panels):
        Vp = V[k0:, k0:k1]
        Q[k0:, :] -= Vp @ (T @ (Vp.T @ Q[k0:, :]))
    return Q, R


def back_substitution_loop(U: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Zero-pivot-tolerant elimination loop: a pivot at or below *tol*
    gives a zero solution component."""
    n = U.shape[0]
    x = np.zeros(n, dtype=np.float64)
    for k in range(n - 1, -1, -1):
        residual = b[k] - U[k, k + 1 :] @ x[k + 1 :]
        if abs(U[k, k]) <= tol:
            x[k] = 0.0
        else:
            x[k] = residual / U[k, k]
    return x


def back_substitution(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (zero diag -> 0 entry).

    The non-degenerate case goes to LAPACK ``trtrs``; the elimination
    loop only runs when a pivot underflows the tolerance.
    """
    U = np.asarray(upper, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    n = U.shape[0]
    if U.shape != (n, n):
        raise ValueError("upper must be square")
    if b.shape[0] != n:
        raise ValueError("rhs length mismatch")
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    scale = np.max(np.abs(U))
    tol = max(scale, 1.0) * n * np.finfo(np.float64).eps
    if np.min(np.abs(np.diag(U))) > tol:
        return scipy_linalg.solve_triangular(U, b, lower=False, check_finite=False)
    return back_substitution_loop(
        np.ascontiguousarray(U), np.ascontiguousarray(b), tol
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


def gilbert_states_reference(
    process, loss_rates, num_probes: int, seed=None, chunk_size=None
) -> np.ndarray:
    """The per-step Gilbert chain: one ``np.where`` across links per slot.

    Draws exactly as :class:`~repro.lossmodel.gilbert.GilbertProcess`
    does: a stationary start from ``rng.random(num_links)``, then one
    time-major ``(block, num_links)`` uniform draw per chunk of
    *chunk_size* slots (all slots when ``None``).
    """
    rates = np.asarray(loss_rates, dtype=np.float64)
    rng = as_rng(seed)
    g2b, stay = process.effective_parameters(rates)
    num_links = rates.shape[0]
    chunk_size = chunk_size or num_probes
    current = rng.random(num_links) < rates
    blocks = []
    emitted = 0
    while emitted < num_probes:
        block = min(chunk_size, num_probes - emitted)
        states = np.empty((num_links, block), dtype=bool)
        start = 0
        if emitted == 0:
            states[:, 0] = current
            start = 1
        uniforms = rng.random((block - start, num_links))
        for t in range(block - start):
            u = uniforms[t]
            current = np.where(current, u < stay, u < g2b)
            states[:, start + t] = current
        blocks.append(states)
        emitted += block
    return np.concatenate(blocks, axis=1)


def measure_packet_reference(membership, drops: np.ndarray):
    """The float sparse-product probe measurement of a boolean drop matrix.

    ``counts[i, t]`` is how many of path *i*'s links dropped slot *t*; a
    probe survives iff it is zero.  Returns ``(path transmission rates,
    per-link drop fractions)``.
    """
    counts = membership @ drops.astype(np.float64)
    return 1.0 - (counts > 0).mean(axis=1), drops.mean(axis=1)
