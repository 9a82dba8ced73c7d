"""Constructive decomposition of the backward error into rank-one pieces.

The backward error of a pair (A, Rtheta) equals the maximum of
sqrt(sum_i mu^2(A p_i, Rtheta q_i)) over matrices P, Q with orthonormal
columns, k = min(n, d).  optimal_pq builds a maximizing pair from the
negative-eigenvalue block of the Gram pencil followed by a hyperbolic CS
decomposition; brute_force_max is an independent randomized search used as
an oracle on tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_2d, _check_finite, compress_pair
from .errors import (ColumnsNotOrthonormal, DimensionMismatch, NotFeasible,
                     SizeGuard)
from .estimates import mu_rank_one
from .pencil import gram_pencil, gram_shift, hyperbolic_cs


@dataclass(frozen=True, eq=False)
class DecompositionWitness:
    """A feasible (P, Q) pair with its rank-one summands.

    total = sqrt(sum of squared summands) never exceeds the true backward
    error; for the constructed optimum it attains it.  swapped records
    whether the roles of the two inputs were exchanged to enforce n >= d,
    and regularization_eps the diagonal Gram shift applied (0 if none).
    """

    P: np.ndarray
    Q: np.ndarray
    summands: np.ndarray
    total: float
    swapped: bool = False
    regularization_eps: float = 0.0


def _check_orthonormal(M: np.ndarray, name: str, atol: float) -> None:
    gram = M.T @ M
    if not np.all(np.abs(gram - np.eye(M.shape[1])) <= atol):  # NaN fails
        raise ColumnsNotOrthonormal(f"{name} columns are not orthonormal")


def decomposition_sum(A, Rtheta, P, Q) -> float:
    """Feasible-value functional: sqrt(sum_i mu^2(A p_i, Rtheta q_i)) for
    orthonormal-column P (n x k) and Q (d x k), k <= min(n, d).

    By the decomposition identity this never exceeds mu(A, Rtheta).
    """
    P, Q, Rtheta = _as_2d(P, "P"), _as_2d(Q, "Q"), _as_2d(Rtheta, "Rtheta")
    n, d, k = np.shape(A)[1], Rtheta.shape[1], P.shape[1]
    if P.shape[0] != n or Q.shape != (d, k) or k > min(n, d):
        raise DimensionMismatch(
            f"P must be n x k and Q d x k with k <= min(n, d) = "
            f"{min(n, d)}; got P {P.shape} and Q {Q.shape} for n = {n}, "
            f"d = {d}")
    _check_finite(A, "A")
    _check_finite(Rtheta, "Rtheta")
    _check_orthonormal(P, "P", 1e-8)
    _check_orthonormal(Q, "Q", 1e-8)
    return float(_feasible_values(A, Rtheta, P, Q))


def _feasible_values(A, Rtheta, P, Q) -> np.ndarray:
    """decomposition_sum over stacks P (..., n, k) and Q (..., d, k),
    without its checks."""
    return np.sqrt(_batch_objective(A @ P, Rtheta @ Q))


def _summands(LP, RQ) -> np.ndarray:
    """The rank-one values mu(LP[..., i], RQ[..., i]) of column stacks
    (..., m, k), as (..., k)."""
    return mu_rank_one(np.swapaxes(LP, -1, -2), np.swapaxes(RQ, -1, -2))


def _batch_objective(LP: np.ndarray, RQ: np.ndarray) -> np.ndarray:
    """Sum of squared rank-one values of column stacks (..., m, k)."""
    mu = _summands(LP, RQ)
    return np.sum(mu * mu, axis=-1)


def _oriented_pair(A, Rtheta):
    """Compressed (left, right, swapped), left the wider block (n >= d)."""
    _check_finite(A, "A")
    _check_finite(Rtheta, "Rtheta")
    cp = compress_pair(A, Rtheta)
    if cp.TR.shape[1] > cp.TA.shape[1]:
        return cp.TR, cp.TA, True
    return cp.TA, cp.TR, False


def _witness(left, right, P, Q, swapped: bool,
             eps: float = 0.0) -> DecompositionWitness:
    """Witness of (P, Q) on the oriented pair, in the caller's orientation."""
    summands = _summands(left @ P, right @ Q)
    if swapped:
        P, Q = Q, P
    return DecompositionWitness(
        P=P, Q=Q, summands=summands,
        total=float(np.sqrt(np.sum(summands * summands))),
        swapped=swapped, regularization_eps=eps)


def optimal_pq(A, Rtheta) -> DecompositionWitness:
    """Construct a maximizing (P, Q) for the rank-one decomposition.

    Route: compress the pair, solve the Gram pencil of [A, Rtheta] against
    the signature J (pencil.gram_pencil), take the negative-eigenvalue
    block (which already satisfies X'JX = -I), and run the hyperbolic CS
    decomposition on it; P comes out of the upper block and Q out of the
    lower one.  When d > n the two inputs swap roles (the backward error
    is symmetric), and the witness reports the orientation used.
    Rank-deficient pairs get a diagonal Gram shift; a NotFeasible from the
    CS step is retried once with 100 times that shift.  When m < n + d the
    Gram matrix is singular, and the route can raise NotFeasible or lose
    about half its digits.
    """
    left, right, swapped = _oriented_pair(A, Rtheta)
    n, d = left.shape[1], right.shape[1]
    if float(np.linalg.norm(right)) == 0.0:
        return _witness(left, right, np.eye(n, d), np.eye(d), swapped)
    pe, eps = gram_pencil(left, right)
    try:
        cs = hyperbolic_cs(pe.negative_block(), pe.sig)
    except NotFeasible:
        # Degenerate rank case: retry once with a larger shift.
        pe, eps = gram_pencil(left, right, 100.0 * gram_shift(left, right))
        cs = hyperbolic_cs(pe.negative_block(), pe.sig)
    return _witness(left, right, cs.P, cs.Q, swapped, eps)


# ---------------------------------------------------------------------------
# Brute-force oracle on tiny instances.

_MAX_N = 3
_MAX_D = 2
# Trials searched together: the batch's arrays take about 9 kB a trial.
_BATCH = 1024


def _check_count(value, name: str, least: int) -> None:
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(
            f"{name} must be an integer >= {least}, got {value!r}")


def _givens_pairs(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _rotate_rows(M: np.ndarray, i: int, j: int,
                 angles: np.ndarray) -> np.ndarray:
    """Copies of each M[t] (T, r, k) with rows (i, j) rotated by each of
    angles[t] (T, G), rows first: (r, T, G, k)."""
    (T, G), (r, k) = angles.shape, M.shape[1:]
    out = np.broadcast_to(np.moveaxis(M, 1, 0)[:, :, None],
                          (r, T, G, k)).copy()
    ct, st = np.cos(angles)[..., None], np.sin(angles)[..., None]
    ri, rj = M[:, None, i], M[:, None, j]
    out[i] = ct * ri + st * rj
    out[j] = -st * ri + ct * rj
    return out


def _times(op: np.ndarray, X: np.ndarray) -> np.ndarray:
    """op @ X[:, t, g] for a rows-first stack X (r, T, G, k), as (T, G, m, k).

    Each sum runs in the order einsum takes for one trial's (G, r, k)
    block, so every entry is bitwise what a trial searched alone gets
    (matmul's BLAS kernels round differently).  With k = 1 einsum reduces
    along the contiguous row axis in partial sums; with k = 2 it adds row
    by row, which the rows-first layout keeps while its inner loop runs
    over the whole batch.
    """
    if X.shape[-1] == 1:
        return np.einsum("mn,...nk->...mk", op,
                         np.ascontiguousarray(np.moveaxis(X, 0, -2)))
    return np.moveaxis(np.einsum("mn,n...->m...", op, X), 0, -2)


def _line_search(TA, TR, P, Q, side, i, j):
    """Best rotation angle for rows (i, j) of P or Q, per trial, by a
    25-point grid and three refinements around each trial's best angle."""
    T = P.shape[0]
    rows = np.arange(T)
    lo, hi = np.full(T, -np.pi / 2.0), np.full(T, np.pi / 2.0)
    best_t, best_val = np.zeros(T), np.full(T, -np.inf)
    if side == "P":
        op, M, fixed = TA, P, (TR @ Q)[:, None]
    else:
        op, M, fixed = TR, Q, (TA @ P)[:, None]
    for _ in range(4):
        grid = np.linspace(lo, hi, 25, axis=1)
        moving = _times(op, _rotate_rows(M, i, j, grid))
        vals = (_batch_objective(moving, fixed) if side == "P"
                else _batch_objective(fixed, moving))
        idx = np.argmax(vals, axis=1)
        top = vals[rows, idx]
        gain = top > best_val
        best_val = np.where(gain, top, best_val)
        best_t = np.where(gain, grid[rows, idx], best_t)
        width = (hi - lo) / 8.0
        lo, hi = best_t - width, best_t + width
    return best_t, best_val


def _apply_rotation(M: np.ndarray, i: int, j: int,
                    t: np.ndarray) -> np.ndarray:
    """M (T, r, k) with rows (i, j) of each M[s] rotated by t[s]."""
    out = M.copy()
    ct, st = np.cos(t)[:, None], np.sin(t)[:, None]
    out[:, i], out[:, j] = (ct * M[:, i] + st * M[:, j],
                            -st * M[:, i] + ct * M[:, j])
    return out


def _search(TA, TR, trials: range, polish_steps: int, seed: int):
    """Draw and polish the given trials as one batch; returns each trial's
    objective value with its P (T, n, k) and Q (T, d, k)."""
    n, d = TA.shape[1], TR.shape[1]
    k = min(n, d)
    rngs = (np.random.default_rng([seed, trial]) for trial in trials)
    draws = [(g.standard_normal((n, k)), g.standard_normal((d, k)))
             for g in rngs]
    P = np.linalg.qr(np.stack([gp for gp, _ in draws]))[0]
    Q = np.linalg.qr(np.stack([gq for _, gq in draws]))[0]
    val = _batch_objective(TA @ P, TR @ Q)
    live = np.arange(len(trials))
    for _ in range(polish_steps):
        improved = np.zeros(live.size, dtype=bool)
        for side, M, pairs in (("P", P, _givens_pairs(n)),
                               ("Q", Q, _givens_pairs(d))):
            for (i, j) in pairs:
                t, v = _line_search(TA, TR, P[live], Q[live], side, i, j)
                gain = v > val[live] + 1e-13
                won = live[gain]
                M[won] = _apply_rotation(M[won], i, j, t[gain])
                val[won] = v[gain]
                improved |= gain
        # A sweep with no gain would repeat itself exactly: the trial is done.
        live = live[improved]
        if live.size == 0:
            break
    return val, P, Q


def brute_force_max(A, Rtheta, trials: int = 200, polish_steps: int = 20,
                    seed: int = 0) -> DecompositionWitness:
    """Randomized search for the decomposition maximum on tiny instances.

    Random orthonormal (P, Q) restarts followed by coordinate polish: each
    polish sweep line-searches a rotation angle for every row pair of P and
    of Q, which walks exactly on the orthonormal-column manifold.  The
    trials are searched as one batch (in blocks of _BATCH): every sweep
    takes each row pair for all trials still improving at once, and a trial
    stops after a sweep with no gain.  The first trial with the largest
    value wins.  Guarded to n <= 3, d <= 2 (after orientation); raises
    SizeGuard beyond that.  Per-trial randomness derives from (seed, trial
    index), so trials are independent and reproducible.
    """
    _check_count(trials, "trials", 1)
    _check_count(polish_steps, "polish_steps", 0)
    TA, TR, swapped = _oriented_pair(A, Rtheta)
    n, d = TA.shape[1], TR.shape[1]
    if n > _MAX_N or d > _MAX_D:
        raise SizeGuard(f"brute force limited to n <= {_MAX_N}, d <= {_MAX_D}")
    best = None
    for start in range(0, trials, _BATCH):
        val, P, Q = _search(TA, TR, range(start, min(start + _BATCH, trials)),
                            polish_steps, seed)
        top = int(np.argmax(val))
        if best is None or val[top] > best[0]:
            best = (val[top], P[top], Q[top])
    _, P, Q = best
    return _witness(TA, TR, P, Q, swapped)


__all__ = ["DecompositionWitness", "optimal_pq", "decomposition_sum",
           "brute_force_max"]
