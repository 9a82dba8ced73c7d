"""Constructive decomposition of the backward error into rank-one pieces.

The backward error of a pair (A, Rtheta) equals the maximum of
sqrt(sum_i mu^2(A p_i, Rtheta q_i)) over matrices P, Q with orthonormal
columns, k = min(n, d).  optimal_pq builds a maximizing pair from the
negative-eigenvalue block of the Gram pencil followed by a hyperbolic CS
decomposition; brute_force_max is an independent randomized search used as
an oracle on tiny instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _as_2d, compress_pair
from .errors import ColumnsNotOrthonormal, NotFeasible, SizeGuard
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
    if np.max(np.abs(gram - np.eye(M.shape[1]))) > atol:
        raise ColumnsNotOrthonormal(f"{name} columns are not orthonormal")


def decomposition_sum(A, Rtheta, P, Q) -> float:
    """Feasible-value functional: sqrt(sum_i mu^2(A p_i, Rtheta q_i)) for
    orthonormal-column P (n x k) and Q (d x k).

    By the decomposition identity this never exceeds mu(A, Rtheta).
    """
    P, Q, Rtheta = _as_2d(P, "P"), _as_2d(Q, "Q"), _as_2d(Rtheta, "Rtheta")
    _check_orthonormal(P, "P", 1e-8)
    _check_orthonormal(Q, "Q", 1e-8)
    return float(np.linalg.norm(_summands(A @ P, Rtheta @ Q)))


def _summands(LP, RQ) -> np.ndarray:
    """The rank-one values mu(LP[:, i], RQ[:, i]), one per column pair."""
    return np.array([mu_rank_one(LP[:, i], RQ[:, i])
                     for i in range(LP.shape[1])])


def _oriented_pair(A, Rtheta):
    """Compressed (left, right, swapped), left the wider block (n >= d)."""
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
        P=P, Q=Q, summands=summands, total=float(np.linalg.norm(summands)),
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


def _givens_pairs(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def _batch_objective(LP: np.ndarray, RQ: np.ndarray) -> np.ndarray:
    """Sum of squared rank-one values per batch entry.

    LP, RQ: (T, k', k) batches of A P and Rtheta Q column sets.
    """
    dots = np.einsum("tmi,tmi->ti", LP, RQ)
    na2 = np.einsum("tmi,tmi->ti", LP, LP)
    nr2 = np.einsum("tmi,tmi->ti", RQ, RQ)
    plus = np.sqrt(np.maximum(na2 + 2.0 * dots + nr2, 0.0))
    minus = np.sqrt(np.maximum(na2 - 2.0 * dots + nr2, 0.0))
    den = plus + minus
    with np.errstate(invalid="ignore", divide="ignore"):
        mu = np.where(den > 0.0, 2.0 * np.abs(dots) / den, 0.0)
    return np.sum(mu * mu, axis=1)


def _rotate_rows(M: np.ndarray, i: int, j: int,
                 angles: np.ndarray) -> np.ndarray:
    """Batch of copies of M with rows (i, j) rotated by each angle."""
    T = angles.shape[0]
    out = np.broadcast_to(M, (T,) + M.shape).copy()
    ct, st = np.cos(angles), np.sin(angles)
    ri, rj = M[i], M[j]
    out[:, i, :] = ct[:, None] * ri + st[:, None] * rj
    out[:, j, :] = -st[:, None] * ri + ct[:, None] * rj
    return out


def _line_search(TA, TR, P, Q, side, i, j):
    """Best rotation angle for rows (i, j) of P or Q by grid + refinement."""
    lo, hi = -np.pi / 2.0, np.pi / 2.0
    best_t, best_val = 0.0, -np.inf
    if side == "P":
        fixed = np.ascontiguousarray(TR @ Q)
    else:
        fixed = np.ascontiguousarray(TA @ P)
    for _ in range(4):
        grid = np.linspace(lo, hi, 25)
        fixed_b = np.broadcast_to(fixed, (grid.size,) + fixed.shape)
        if side == "P":
            moving = np.einsum("mn,tnk->tmk", TA, _rotate_rows(P, i, j, grid))
            vals = _batch_objective(moving, fixed_b)
        else:
            moving = np.einsum("mn,tnk->tmk", TR, _rotate_rows(Q, i, j, grid))
            vals = _batch_objective(fixed_b, moving)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val, best_t = float(vals[idx]), float(grid[idx])
        width = (hi - lo) / 8.0
        lo, hi = best_t - width, best_t + width
    return best_t, best_val


def _apply_rotation(M: np.ndarray, i: int, j: int, t: float) -> np.ndarray:
    out = M.copy()
    ct, st = math.cos(t), math.sin(t)
    out[i], out[j] = ct * M[i] + st * M[j], -st * M[i] + ct * M[j]
    return out


def brute_force_max(A, Rtheta, trials: int = 200, polish_steps: int = 20,
                    seed: int = 0) -> DecompositionWitness:
    """Randomized search for the decomposition maximum on tiny instances.

    Random orthonormal (P, Q) restarts followed by coordinate polish: each
    polish sweep line-searches a rotation angle for every row pair of P and
    of Q, which walks exactly on the orthonormal-column manifold.  Guarded
    to n <= 3, d <= 2 (after orientation); raises SizeGuard beyond that.
    Per-trial randomness derives from (seed, trial index), so trials are
    independent and reproducible.
    """
    TA, TR, swapped = _oriented_pair(A, Rtheta)
    n, d = TA.shape[1], TR.shape[1]
    if n > _MAX_N or d > _MAX_D:
        raise SizeGuard(f"brute force limited to n <= {_MAX_N}, d <= {_MAX_D}")
    k = min(n, d)
    pairs_P = _givens_pairs(n)
    pairs_Q = _givens_pairs(d)

    best = None
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        P, _ = np.linalg.qr(rng.standard_normal((n, k)))
        Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        val = _batch_objective((TA @ P)[None], (TR @ Q)[None])[0]
        for _ in range(polish_steps):
            improved = False
            for (i, j) in pairs_P:
                t, v = _line_search(TA, TR, P, Q, "P", i, j)
                if v > val + 1e-13:
                    P = _apply_rotation(P, i, j, t)
                    val, improved = v, True
            for (i, j) in pairs_Q:
                t, v = _line_search(TA, TR, P, Q, "Q", i, j)
                if v > val + 1e-13:
                    Q = _apply_rotation(Q, i, j, t)
                    val, improved = v, True
            if not improved:
                break
        if best is None or val > best[0]:
            best = (val, P, Q)

    _, P, Q = best
    return _witness(TA, TR, P, Q, swapped)


__all__ = ["DecompositionWitness", "optimal_pq", "decomposition_sum",
           "brute_force_max"]
