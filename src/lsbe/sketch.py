"""Seeded randomized embeddings and distortion measurement.

Operators are immutable descriptions; their action is a deterministic pure
function of (kind, rows, cols, seed, params), so traces built on top of
them reproduce bit for bit.  The dense Gaussian sketch is never
materialized: SketchOperator.row_blocks streams S V in blocks of 256 rows,
and both apply_sketch and kw_factorization(A, sketch=S) consume that one
stream.  Each block of S is drawn transposed, as a C-ordered cols x 256
array from one SFC64 generator, the layout in which a sparse V.T and a
dense V read it without a copy; S therefore depends on the block size.
That array is drawn in pieces of 1024 of its rows, which the generator
fills in the order of one whole draw, so S does not depend on the piece
size.  Each piece is scaled, and its product with the matching 1024 rows
of V is added into the block's output.  For cols <= 1024 a block is one
piece, and S V is what a whole-block draw gives, bit for bit.  For more
rows the sums of S V are split at the pieces, which moves their rounding.
A sparse V of more rows is read as CSR, so a piece's rows are a slice
found without a search, and S V does not depend on V's storage or on the
order of its stored entries.  While the calling thread takes the
products and the caller folds the blocks, one helper thread draws up to
six pieces, and at most one block, ahead, each into a reused buffer that
it refills as soon as its piece's product is taken.  The draw releases
the interpreter lock, so it runs on a second core when one is free; on
one core the pieces run in sequence.  The draws happen in stream order
either way, so the output does not depend on the scheduling.  A stream
holds O(6 * 1024 * 256 + k * 256) floats for V with k columns, whatever
cols is, beside the CSR copy of a sparse V not given as CSR, where a
whole-block draw held 2 * 256 * cols: the traced peak of
kw_factorization(A, sketch=S) for a sparse m x 64 A and a 384-row S is
13.2 MB at m = 20000 and 13.5 MB at m = 80000, where whole blocks took
82.4 and 328.2 MB.  A sparse-sign sketch is drawn whole, in nine
generator calls whatever its size: eight vectorized steps of Floyd's
sampling pick each column's 8 rows, one call draws every sign.
Its product with a sparse V stays sparse until apply_sketch or
kw_factorization makes it dense.
"""

from __future__ import annotations

import collections
import itertools
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .core import TOL_RANK, is_sparse
from .errors import RankDeficient, ShapeMismatch

# Rows per Gaussian block.  Each block is drawn transposed, so this is part
# of the definition of a Gaussian S, not a tuning knob.
_GAUSS_BLOCK = 256

# Columns of S (rows of V) per piece: each Gaussian block is drawn and
# applied in pieces of this many of its columns.  S does not depend on it.
_PIECE = 1024

# Piece buffers a helper thread fills ahead of the products.  A fold of a
# 256 x 1019 block takes 14-22 ms, the time of five to seven 1024 x 256
# draws.  On solve-trace (seeds 11-15, one BLAS thread, 2-core host) six
# buffers read 116.8-119.0 MB peak RSS and 1.54-1.95 s wall; eight read
# 120.9-121.4 MB, twelve 128.6-135.4 MB, and two and four took 1.87-2.22
# and 1.73-2.48 s.
_RING = 6

# Nonzeros per column of a sparse-sign sketch: zeta = 8 (Martinsson &
# Tropp 2020), so such a sketch needs at least 8 rows.
_SPARSE_SIGN_NNZ = 8


@dataclass(frozen=True, eq=False)
class SketchOperator:
    """A seeded random embedding S of shape rows x cols.

    kinds:
      gaussian      entries N(0, 1/rows), streamed in row blocks;
      sparse_sign   8 entries +-1/sqrt(8) per column (at least 8 rows);
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
    eta: float = 0.0
    subspace: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in {"gaussian", "sparse_sign", "identity",
                             "synthetic_eta"}:
            raise ValueError(f"unknown sketch kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.kind == "identity" and self.rows != self.cols:
            raise ValueError("identity sketch requires rows == cols")
        if self.kind == "sparse_sign" and self.rows < _SPARSE_SIGN_NNZ:
            raise ValueError(
                f"a sparse-sign sketch needs at least {_SPARSE_SIGN_NNZ} "
                f"rows, got {self.rows}")
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
        256 rows, each drawn transposed (cols x 256, C order, SFC64); the
        block size is part of the definition of S, not a knob.  The draw
        and the product with V go in pieces of 1024 of the cols, which
        leave S as it is (for cols > 1024 the rounding of S V moves), so
        a stream holds at most six 1024 x 256 piece buffers and the block
        being summed, not the whole cols x 256 draw.  The pieces are drawn
        ahead on a helper thread that is joined before the generator
        finishes, raises or is closed.  Every other input, a single-block
        Gaussian sketch included, starts no thread; a kind other than
        Gaussian yields the whole product as one block: for a sparse V,
        sparse with a sparse-sign S and V itself, not a copy, with the
        identity; dense otherwise.
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


def _sparse_sign_matrix(S: SketchOperator) -> sp.csc_matrix:
    """S as a canonical CSC matrix, drawn for all columns at once: each
    column's 8 rows are a uniform 8-subset of range(rows) by Floyd's
    algorithm (step j draws t from [0, j] and takes j where t repeats an
    earlier pick), then one call draws every sign."""
    rng = np.random.default_rng(S.seed)
    nnz = _SPARSE_SIGN_NNZ
    picks = np.empty((S.cols, nnz), dtype=np.int64)
    for step, j in enumerate(range(S.rows - nnz, S.rows)):
        t = rng.integers(0, j + 1, size=S.cols)
        repeat = (picks[:, :step] == t[:, None]).any(axis=1)
        picks[:, step] = np.where(repeat, j, t)
    picks.sort(axis=1)
    vals = (2.0 * rng.integers(0, 2, size=picks.size) - 1.0) / np.sqrt(nnz)
    return sp.csc_matrix((vals, picks.ravel(), nnz * np.arange(S.cols + 1)),
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
    """S V for a Gaussian S in blocks of _GAUSS_BLOCK rows.  Block i of S
    is the transpose of a C-ordered (cols, b_i) array drawn from one SFC64
    generator, so S depends on the block size; a sparse V.T and a dense V
    read that layout uncopied.  The array is drawn, scaled and applied in
    pieces of _PIECE of its rows, in stream order, so S does not depend on
    the piece size: each piece's product with the matching rows of V is
    added into the block's output.  With more than one block a helper
    thread draws up to _RING pieces ahead, and never more than one block,
    each into a reused buffer that it refills only once that piece's
    product is taken."""
    rng = np.random.Generator(np.random.SFC64(S.seed))
    scale = 1.0 / np.sqrt(S.rows)
    sizes = [min(_GAUSS_BLOCK, S.rows - start)
             for start in range(0, S.rows, _GAUSS_BLOCK)]
    cuts = [(lo, min(S.cols, lo + _PIECE)) for lo in range(0, S.cols, _PIECE)]
    stream = [(b, lo, hi) for b in sizes for lo, hi in cuts]
    sparse = is_sparse(V)
    if sparse and len(cuts) > 1:
        # Each piece a slice of rows, where a CSC V would be searched whole
        # for every piece of every block.
        V = V.tocsr()
    helper = None
    if len(sizes) > 1:
        helper = ThreadPoolExecutor(max_workers=1,
                                    thread_name_prefix="lsbe-sketch-draw")
    # At most one block ahead of the one being summed, as whole-block
    # draws were: two buffers when a block is one piece.
    ring = [np.empty(cuts[0][1] * sizes[0])
            for _ in range(1 if helper is None else min(_RING, len(cuts) + 1))]

    def draw(p):
        b, lo, hi = stream[p]
        flat = ring[p % len(ring)][:(hi - lo) * b]
        piece = rng.standard_normal(out=flat.reshape(hi - lo, b))
        piece *= scale
        return piece

    def add_product(out, piece, lo, hi):
        """out plus the product of the piece with rows lo:hi of V, (V' S')
        for a sparse V and S V for a dense one; the product alone when out
        is None."""
        part = V if len(cuts) == 1 else V[lo:hi]
        product = part.T @ piece if sparse else piece.T @ part
        if out is None:
            return product
        out += product
        return out

    submit = _run_now if helper is None else helper.submit
    try:
        pending = collections.deque(submit(draw, p)
                                    for p in range(len(ring)))
        p = 0
        for _ in sizes:
            out = None
            for lo, hi in cuts:
                out = add_product(out, pending.popleft().result(), lo, hi)
                if p + len(ring) < len(stream):  # piece p's buffer is free
                    pending.append(submit(draw, p + len(ring)))
                p += 1
            out = out.T if sparse else out
            yield out[:, 0] if squeeze else out
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)


def _run_now(fn, *args) -> Future:
    """fn(*args), run on the calling thread, as a finished Future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def _apply_whole(S: SketchOperator, V):
    """S V in one piece for the kinds that are not streamed: a sparse V
    itself for the identity, a new array otherwise."""
    if S.kind == "identity":
        return V if is_sparse(V) else np.array(V, copy=True)
    if S.kind == "sparse_sign":
        # Sparse for a sparse V: kw_factorization makes it dense a chunk
        # of rows at a time.
        return _sparse_sign_matrix(S) @ V
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
    if first.shape[0] == S.rows:  # the whole product came as one block
        return first.toarray() if is_sparse(first) else first
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
    column of Y per trial, directions with Ay = 0 skipped, RankDeficient
    when none is left), and S is applied once to all of AY, which scales
    to problems where the exact path is too expensive.
    """
    if not is_sparse(A):
        A = np.asarray(A, dtype=float)
    if trials > 0:
        Y = np.random.default_rng(seed).standard_normal((trials, A.shape[1]))
        AY = A @ Y.T
        norms = np.linalg.norm(AY, axis=0)
        seen = norms > 0.0
        if not seen.any():
            raise RankDeficient("no sampled direction has Ay != 0")
        ratios = np.linalg.norm(apply_sketch(S, AY[:, seen]), axis=0)
        ratios /= norms[seen]
        return 1.0 - float(ratios.min()), float(ratios.max()) - 1.0

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
