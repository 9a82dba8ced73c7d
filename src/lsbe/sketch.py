"""Seeded randomized embeddings and distortion measurement.

Operators are immutable descriptions; their action is a deterministic pure
function of (kind, rows, cols, seed, params), so traces built on top of
them reproduce bit for bit.  The dense Gaussian sketch is never
materialized: SketchOperator.row_blocks streams S V in blocks of 256 rows,
and both apply_sketch and kw_factorization(A, sketch=S) consume that one
stream.  While the calling thread scales block i and takes its product
with V, one helper thread draws block i+1 from the seeded generator into
the other of two reused buffers (block i+2 is queued as soon as block i's
buffer is free).  The draw releases the interpreter lock, so it runs on a
second core when one is free; on one core the blocks run in sequence.
The draws happen in stream order either way, so the output does not
depend on the scheduling.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .core import TOL_RANK, is_sparse
from .errors import RankDeficient, ShapeMismatch

_GAUSS_BLOCK = 256


@dataclass(frozen=True, eq=False)
class SketchOperator:
    """A seeded random embedding S of shape rows x cols.

    kinds:
      gaussian      entries N(0, 1/rows), streamed in row blocks;
      sparse_sign   nnz_per_col entries +-1/sqrt(nnz_per_col) per column;
      identity      pass-through (rows must equal cols);
      synthetic_eta test-only map with exactly known distortion: an
                    orthonormal lift composed with a scaling that acts as
                    (1 + eta) and (1 - eta) on a designated orthonormal
                    pair of directions (seed-random when subspace is None)
                    and as the identity elsewhere.
    """

    kind: str
    rows: int
    cols: int
    seed: int = 0
    nnz_per_col: int = 8
    eta: float = 0.0
    subspace: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in {"gaussian", "sparse_sign", "identity",
                             "synthetic_eta"}:
            raise ValueError(f"unknown sketch kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.kind == "identity" and self.rows != self.cols:
            raise ValueError("identity sketch requires rows == cols")
        if self.kind == "sparse_sign" and not (
                1 <= self.nnz_per_col <= self.rows):
            raise ValueError("nnz_per_col must lie in [1, rows]")
        if self.kind == "synthetic_eta":
            if not (0.0 <= self.eta < 1.0):
                raise ValueError("eta must lie in [0, 1)")
            if self.rows < self.cols:
                raise ValueError("synthetic_eta requires rows >= cols")
            if self.cols < 2:
                raise ValueError("synthetic_eta requires cols >= 2")
            if self.subspace is not None:
                U = np.asarray(self.subspace, dtype=float)
                if U.ndim != 2 or U.shape[0] != self.cols or U.shape[1] < 2:
                    raise ValueError("subspace must be cols x (>=2)")
                if np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) > 1e-10:
                    raise ValueError("subspace columns must be orthonormal")
                object.__setattr__(self, "subspace", U)

    def row_blocks(self, V):
        """Yield S V as consecutive row blocks, top to bottom.

        V has self.cols rows (dense, sparse or 1-D; a 1-D V gives 1-D
        blocks).  A Gaussian sketch of more than 256 rows yields blocks of
        256 rows, drawn ahead on a helper thread that is joined before the
        generator finishes, raises or is closed.  Every other input yields
        the whole product as one block and starts no thread.
        """
        V, squeeze = _as_input(self, V)
        if self.kind == "gaussian":
            yield from _gaussian_blocks(self, V, squeeze)
        else:
            out = _apply_whole(self, V)
            yield out[:, 0] if squeeze else out


def sketch_rows(factor: float, n: int) -> int:
    """Rows of a sketch sized factor * n for A with n columns: the floor of
    factor * n, never fewer than n.  factor must be finite and positive."""
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError("sketch rows factor must be finite and positive")
    return max(n, int(factor * n))


def _synthetic_parts(S: SketchOperator):
    rng = np.random.default_rng(S.seed)
    lift, _ = np.linalg.qr(rng.standard_normal((S.rows, S.cols)))
    if S.subspace is not None:
        u_plus, u_minus = S.subspace[:, 0], S.subspace[:, 1]
    else:
        pair, _ = np.linalg.qr(rng.standard_normal((S.cols, 2)))
        u_plus, u_minus = pair[:, 0], pair[:, 1]
    return lift, u_plus, u_minus


def _sparse_sign_matrix(S: SketchOperator) -> sp.csr_matrix:
    rng = np.random.default_rng(S.seed)
    nnz = S.nnz_per_col
    rows_idx = np.empty(S.cols * nnz, dtype=np.int64)
    vals = np.empty(S.cols * nnz)
    scale = 1.0 / np.sqrt(nnz)
    for j in range(S.cols):
        sl = slice(j * nnz, (j + 1) * nnz)
        rows_idx[sl] = rng.choice(S.rows, size=nnz, replace=False)
        vals[sl] = scale * (2.0 * rng.integers(0, 2, size=nnz) - 1.0)
    cols_idx = np.repeat(np.arange(S.cols), nnz)
    return sp.csr_matrix((vals, (rows_idx, cols_idx)),
                         shape=(S.rows, S.cols))


def _as_input(S: SketchOperator, V):
    """V as a 2-D dense or sparse array with S.cols rows, and whether it
    was 1-D."""
    squeeze = False
    if not is_sparse(V):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
            squeeze = True
    if V.shape[0] != S.cols:
        raise ShapeMismatch(
            f"sketch expects {S.cols} rows, input has {V.shape[0]}")
    return V, squeeze


def _gaussian_blocks(S: SketchOperator, V, squeeze: bool):
    """S V for a Gaussian S in blocks of _GAUSS_BLOCK rows, each block of S
    drawn from one generator into one of two reused buffers."""
    rng = np.random.default_rng(S.seed)
    scale = 1.0 / np.sqrt(S.rows)
    sizes = [min(_GAUSS_BLOCK, S.rows - start)
             for start in range(0, S.rows, _GAUSS_BLOCK)]
    buffers = [np.empty((sizes[0], S.cols)) for _ in sizes[:2]]

    def draw(i):
        return rng.standard_normal(out=buffers[i % 2][:sizes[i]])

    def product(block):
        block *= scale
        out = (V.T @ block.T).T if is_sparse(V) else block @ V
        return out[:, 0] if squeeze else out

    if len(sizes) == 1:
        yield product(draw(0))
        return
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="lsbe-sketch-draw") as helper:
        pending = {i: helper.submit(draw, i) for i in range(2)}
        for i in range(len(sizes)):
            block = product(pending.pop(i).result())
            if i + 2 < len(sizes):  # the buffer of block i is free again
                pending[i + 2] = helper.submit(draw, i + 2)
            yield block


def _apply_whole(S: SketchOperator, V) -> np.ndarray:
    """S V in one piece for the kinds that are not streamed."""
    if S.kind == "identity":
        return V.toarray() if is_sparse(V) else np.array(V, copy=True)
    if S.kind == "sparse_sign":
        out = _sparse_sign_matrix(S) @ V
        return out.toarray() if is_sparse(out) else out
    lift, u_plus, u_minus = _synthetic_parts(S)
    Vd = V.toarray() if is_sparse(V) else V
    scaled = (Vd + S.eta * np.outer(u_plus, u_plus @ Vd)
              - S.eta * np.outer(u_minus, u_minus @ Vd))
    return lift @ scaled


def apply_sketch(S: SketchOperator, V) -> np.ndarray:
    """Apply the sketch to an array with S.cols rows; 1-D inputs give 1-D
    outputs.  Identical (kind, rows, cols, seed, params) always produces
    the identical action."""
    blocks = S.row_blocks(V)
    first = next(blocks)
    if len(first) == S.rows:  # the whole product came as one block
        return first
    out = np.empty((S.rows,) + first.shape[1:])
    start = 0
    for block in itertools.chain([first], blocks):
        out[start:start + len(block)] = block
        start += len(block)
    return out


def measure_distortion(S: SketchOperator, A, trials: int = 0,
                       seed: int = 0) -> tuple[float, float]:
    """One-sided distortions (eta_low, eta_high) of the sketch on the
    column space of A, so that

        (1 - eta_low) ||Ay|| <= ||S(Ay)|| <= (1 + eta_high) ||Ay||.

    With trials == 0 the exact extremal values are computed from the
    generalized eigenvalues of (SA)'(SA) against A'A, which requires A to
    have numerical full column rank (RankDeficient otherwise).  With
    trials > 0 the distortions are sampled over random directions y (one
    column of Y per trial, directions with Ay = 0 skipped), and S is
    applied once to all of AY, which scales to problems where the exact
    path is too expensive.
    """
    if not is_sparse(A):
        A = np.asarray(A, dtype=float)
    if trials > 0:
        Y = np.random.default_rng(seed).standard_normal((trials, A.shape[1]))
        AY = A @ Y.T
        norms = np.linalg.norm(AY, axis=0)
        seen = norms > 0.0
        ratios = np.linalg.norm(apply_sketch(S, AY[:, seen]), axis=0)
        ratios /= norms[seen]
        return (1.0 - float(ratios.min(initial=np.inf)),
                float(ratios.max(initial=-np.inf)) - 1.0)

    Ad = A.toarray() if is_sparse(A) else A
    sv = np.linalg.svd(Ad, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= TOL_RANK * sv[0]:
        raise RankDeficient("exact distortion needs full column rank")
    B = apply_sketch(S, Ad)
    G1 = B.T @ B
    G0 = Ad.T @ Ad
    gamma = scipy.linalg.eigh(0.5 * (G1 + G1.T), 0.5 * (G0 + G0.T),
                              eigvals_only=True)
    gamma = np.maximum(gamma, 0.0)
    return 1.0 - float(np.sqrt(gamma[0])), float(np.sqrt(gamma[-1])) - 1.0


__all__ = ["SketchOperator", "apply_sketch", "measure_distortion",
           "sketch_rows"]
