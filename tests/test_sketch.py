import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import lsbe.sketch
from lsbe.errors import RankDeficient, ShapeMismatch
from lsbe.sketch import (SketchOperator, _add_sparse_product,
                         _sparse_sign_matrix, apply_sketch,
                         measure_distortion, sketch_rows)

pytestmark = pytest.mark.threaded_blas


def test_identity_bitwise(rng):
    V = rng.standard_normal((7, 3))
    S = SketchOperator(kind="identity", rows=7, cols=7)
    out = apply_sketch(S, V)
    assert np.array_equal(out, V)
    out[0, 0] = 99.0  # the returned array must be a copy
    assert V[0, 0] != 99.0


def test_shape_mismatch(rng):
    S = SketchOperator(kind="gaussian", rows=10, cols=6)
    with pytest.raises(ShapeMismatch):
        apply_sketch(S, rng.standard_normal(5))


def test_invalid_kind():
    with pytest.raises(ValueError):
        SketchOperator(kind="hadamard", rows=4, cols=4)


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "gaussian", "rows": 0, "cols": 4}, "positive"),
    ({"kind": "gaussian", "rows": 4, "cols": 0}, "positive"),
    ({"kind": "identity", "rows": 4, "cols": 5}, "rows == cols"),
    ({"kind": "sparse_sign", "rows": 7, "cols": 6}, "at least 8 rows, got 7"),
    ({"kind": "sparse_sign", "rows": 1, "cols": 6}, "at least 8 rows, got 1"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6, "eta": -0.1}, "eta"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6, "eta": 1.0}, "eta"),
    ({"kind": "synthetic_eta", "rows": 5, "cols": 6}, "rows >= cols"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 1}, "cols >= 2"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6,
      "subspace": np.eye(5, 2)}, "cols x"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6,
      "subspace": np.eye(6, 1)}, "cols x"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6,
      "subspace": 2.0 * np.eye(6, 2)}, "orthonormal"),
    ({"kind": "gaussian", "rows": 4, "cols": 4, "seed": -1}, "seed")])
def test_invalid_sketch_parameters(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SketchOperator(**kwargs)


def test_gaussian_norm_preservation_over_seeds(rng):
    m = 30
    v = rng.standard_normal(m)
    v /= np.linalg.norm(v)
    rows = 6 * m
    vals = []
    for seed in range(500):
        S = SketchOperator(kind="gaussian", rows=rows, cols=m, seed=seed)
        vals.append(np.linalg.norm(apply_sketch(S, v)) ** 2)
    assert abs(np.mean(vals) - 1.0) <= 0.05


def _gaussian_materialized(rows, cols, seed):
    """The Gaussian S in full: block i of 256 rows (fewer in the last) is
    the transpose of a (cols, b_i) draw, the blocks drawn in turn from one
    SFC64 generator."""
    rng = np.random.Generator(np.random.SFC64(seed))
    return np.vstack([rng.standard_normal((cols, min(256, rows - start))).T
                      for start in range(0, rows, 256)]) * (1 / np.sqrt(rows))


def test_gaussian_streaming_matches_materialized():
    # The blocked product equals the dense one with S assembled from its
    # transposed blocks.
    rows, m = 600, 12  # spans multiple internal blocks
    seed = 21
    V = np.random.default_rng(99).standard_normal((m, 2))
    S_full = _gaussian_materialized(rows, m, seed)
    out = apply_sketch(SketchOperator(kind="gaussian", rows=rows, cols=m,
                                      seed=seed), V)
    assert np.allclose(out, S_full @ V, rtol=0, atol=1e-13)


def _gaussian_block_loop(S, V):
    """The single-thread Gaussian apply: draw the transpose of a block of
    256 rows from the SFC64 generator, scale it, take its product with V,
    repeat."""
    squeeze = False
    if not sp.issparse(V):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V, squeeze = V[:, None], True
    rng = np.random.Generator(np.random.SFC64(S.seed))
    scale = 1.0 / np.sqrt(S.rows)
    out = np.empty((S.rows, V.shape[1]))
    for start in range(0, S.rows, 256):
        stop = min(start + 256, S.rows)
        block_t = rng.standard_normal((S.cols, stop - start)) * scale
        if sp.issparse(V):
            out[start:stop] = (V.T @ block_t).T
        else:
            out[start:stop] = block_t.T @ V
    return out[:, 0] if squeeze else out


@pytest.mark.parametrize("form", ["dense", "csc", "1-D"])
@pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
def test_gaussian_stream_equals_block_loop(form, rows):
    m = 60
    gen = np.random.default_rng(rows)
    V = sp.random(m, 4, density=0.3, format="csc", random_state=rows + 1)
    V = {"dense": V.toarray(), "csc": V, "1-D": gen.standard_normal(m)}[form]
    S = SketchOperator(kind="gaussian", rows=rows, cols=m, seed=3)
    out = apply_sketch(S, V)
    assert np.array_equal(out, _gaussian_block_loop(S, V))
    blocks = list(S.row_blocks(V))
    assert [len(b) for b in blocks] == [min(256, rows - start)
                                        for start in range(0, rows, 256)]
    assert np.array_equal(np.concatenate(blocks), out)


def test_gaussian_streams_under_thread_switching():
    # Three streams at once, each with its own helper thread, switching
    # threads as often as the interpreter allows: each still equals the
    # single-thread loop.  With m = 2600 each block is three pieces, and
    # the 15 pieces of the five blocks cycle through the ring of buffers.
    for m in (60, 2600):
        V = np.random.default_rng(5).standard_normal((m, 3))
        S = SketchOperator(kind="gaussian", rows=1100, cols=m, seed=9)
        expected = _gaussian_piece_loop(S, V)
        results = []
        workers = [threading.Thread(target=lambda: results.append(
            apply_sketch(S, V))) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(results) == 3
        assert all(np.array_equal(out, expected) for out in results)


def _gaussian_piece_loop(S, V):
    """The Gaussian apply on one thread, piece by piece: the transposed
    draw of each block taken 1024 of its rows at a time from the SFC64
    generator and scaled, and the products of the pieces with their rows
    of V summed into the block in piece order.  SciPy's kernel adds a
    sparse V's entries into a row of the block one by one, in the order of
    V's rows, so that product is one whole-block product with V's indices
    sorted."""
    squeeze = False
    if not sp.issparse(V):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V, squeeze = V[:, None], True
    rng = np.random.Generator(np.random.SFC64(S.seed))
    scale = 1.0 / np.sqrt(S.rows)
    if sp.issparse(V):
        V = sp.csc_matrix(V).sorted_indices()
    out = np.empty((S.rows, V.shape[1]))
    for start in range(0, S.rows, 256):
        stop = min(start + 256, S.rows)
        pieces = [rng.standard_normal((min(1024, S.cols - lo), stop - start))
                  * scale for lo in range(0, S.cols, 1024)]
        if sp.issparse(V):
            out[start:stop] = (V.T @ np.vstack(pieces)).T
        else:
            block = pieces[0].T @ V[:1024]
            for i, piece in enumerate(pieces[1:], 1):
                block += piece.T @ V[1024 * i:1024 * (i + 1)]
            out[start:stop] = block
    return out[:, 0] if squeeze else out


def _piece_inputs(m):
    """A CSC, a dense and a 1-D input with m rows.  The CSC input's row
    indices are shuffled within each column, as the stand-in's are before
    it is written to a file."""
    V = sp.random(m, 5, density=0.05, format="csc", random_state=m)
    V = sp.csc_matrix(V + sp.eye(m, 5))
    shuffle = np.random.default_rng(m)
    for lo, hi in zip(V.indptr[:-1], V.indptr[1:]):
        order = lo + shuffle.permutation(hi - lo)
        V.indices[lo:hi], V.data[lo:hi] = V.indices[order], V.data[order]
    V.has_sorted_indices = False
    return {"csc": V, "dense": V.toarray(),
            "1-D": np.random.default_rng(m).standard_normal(m)}


@pytest.mark.parametrize("form", ["csc", "dense", "1-D"])
@pytest.mark.parametrize("rows", [200, 700])
def test_gaussian_pieces_equal_piece_loop(form, rows):
    # m = 2600 spans three pieces, the last one short.  One block (200
    # rows) runs on the calling thread, three blocks on the helper's ring.
    V = _piece_inputs(2600)[form]
    S = SketchOperator(kind="gaussian", rows=rows, cols=2600, seed=4)
    blocks = list(S.row_blocks(V))
    assert [len(b) for b in blocks] == [min(256, rows - start)
                                        for start in range(0, rows, 256)]
    assert np.array_equal(np.concatenate(blocks), _gaussian_piece_loop(S, V))


@pytest.mark.parametrize("form", ["sorted csc", "csr"])
def test_gaussian_pieces_of_sorted_sparse_input_equal_whole_blocks(form):
    # A CSR V, and a CSC V whose row indices are sorted (as load_matrix
    # returns it), give the whole-block product bit for bit: the kernel
    # adds their entries into each row of the block in the same order.
    V = _piece_inputs(2600)["csc"]
    V = V.sorted_indices() if form == "sorted csc" else V.tocsr()
    S = SketchOperator(kind="gaussian", rows=700, cols=2600, seed=4)
    assert np.array_equal(apply_sketch(S, V), _gaussian_block_loop(S, V))


def test_gaussian_pieces_leave_S_unchanged():
    # S e_j is column j of S, exactly: the pieces are drawn from the
    # generator in the order of one whole draw, so S does not depend on
    # the piece size.  j runs over the edges of all three pieces.
    m, rows, seed = 2600, 600, 8
    cols = [0, 1, 1023, 1024, 1500, 2047, 2048, 2599]
    E = np.zeros((m, len(cols)))
    E[cols, np.arange(len(cols))] = 1.0
    S = SketchOperator(kind="gaussian", rows=rows, cols=m, seed=seed)
    S_full = _gaussian_materialized(rows, m, seed)
    assert np.array_equal(apply_sketch(S, E), S_full[:, cols])
    assert np.array_equal(apply_sketch(S, sp.csc_matrix(E)), S_full[:, cols])


@pytest.mark.parametrize("form", ["csc", "dense", "1-D"])
def test_gaussian_pieces_match_materialized(form):
    # Only the rounding of S V moves: its sums are split at the pieces.
    V = _piece_inputs(2600)[form]
    S = SketchOperator(kind="gaussian", rows=600, cols=2600, seed=2)
    want = _gaussian_materialized(600, 2600, 2) @ (
        V.toarray() if sp.issparse(V) else V)
    got = apply_sketch(S, V)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("form", ["sorted csc", "csr", "coo"])
def test_gaussian_pieces_of_sparse_input_ignore_its_storage(form):
    # A sparse V of more than 1024 rows is read as CSR, so its format and
    # the order of its stored entries leave S V bit for bit as it is.
    V = _piece_inputs(2600)["csc"]
    W = V.sorted_indices() if form == "sorted csc" else V.asformat(form)
    S = SketchOperator(kind="gaussian", rows=300, cols=2600, seed=6)
    assert np.array_equal(apply_sketch(S, W), apply_sketch(S, V))


def test_single_block_of_many_pieces_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a single-block sketch started a thread")
    V = _piece_inputs(2600)["csc"]
    S = SketchOperator(kind="gaussian", rows=256, cols=2600, seed=1)
    want = _gaussian_piece_loop(S, V)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert np.array_equal(apply_sketch(S, V), want)


def _draw_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("lsbe-sketch-draw")]


def test_closing_mid_stream_leaves_no_draw_thread(monkeypatch):
    # Four blocks of three pieces through a ring of four, one block ahead:
    # after the first block the ring holds draws of the next two blocks.
    V = _piece_inputs(2600)["csc"]
    S = SketchOperator(kind="gaussian", rows=900, cols=2600, seed=3)
    assert not _draw_threads()
    blocks = S.row_blocks(V)
    assert next(blocks).shape == (256, 5)
    assert len(_draw_threads()) == 1
    blocks.close()
    assert not _draw_threads()

    # A product that fails inside a block, with draws pending.
    calls = []

    def failing_add(*args):
        calls.append(args)
        if len(calls) == 3:  # the second piece of the second block
            raise RuntimeError("product failed")
    monkeypatch.setattr(lsbe.sketch, "_add_sparse_product", failing_add)
    with pytest.raises(RuntimeError, match="product failed"):
        apply_sketch(S, V)
    assert not _draw_threads()


def test_add_sparse_product_is_scipys_kernel_in_place(rng):
    # _add_sparse_product calls SciPy's private csc_matvecs on a CSR P's
    # arrays, the kernel behind P.T @ X: into zeros it gives P.T @ X bit
    # for bit, and into out it adds in place.
    P = sp.random(70, 40, density=0.1, format="csr", random_state=1)
    X = rng.standard_normal((70, 6))
    out = np.zeros((40, 6))
    _add_sparse_product(out, P, X)
    assert np.array_equal(out, P.T @ X)
    before = rng.standard_normal((40, 6))
    out = before.copy()
    _add_sparse_product(out, P, X)
    assert np.allclose(out, before + P.T @ X, rtol=1e-15, atol=1e-15)
    for bad_P, bad_out, bad_X, message in (
            (P.tocsc(), np.zeros((40, 6)), X, "CSR P"),
            (P, np.zeros((40, 6)), X[:69], "CSR P"),
            (P, np.zeros((41, 6)), X, "CSR P"),
            (P, np.zeros((6, 40)).T, X, "C-contiguous"),
            (P, np.zeros((40, 6), np.float32), X, "C-contiguous"),
            (P, np.zeros((40, 6)), np.asfortranarray(X), "C-contiguous")):
        with pytest.raises(ValueError, match=message):
            _add_sparse_product(bad_out, bad_P, bad_X)



@pytest.mark.parametrize("kind", ["sparse_sign", "identity", "synthetic_eta"])
def test_other_kinds_stream_as_one_block(rng, kind):
    V = rng.standard_normal((40, 3))
    S = SketchOperator(kind=kind, rows=40 if kind != "sparse_sign" else 300,
                       cols=40, seed=2, eta=0.2)
    blocks = list(S.row_blocks(V))
    assert len(blocks) == 1
    assert np.array_equal(blocks[0], apply_sketch(S, V))


def test_gaussian_determinism(rng):
    v = rng.standard_normal(40)
    S1 = SketchOperator(kind="gaussian", rows=90, cols=40, seed=7)
    S2 = SketchOperator(kind="gaussian", rows=90, cols=40, seed=7)
    assert np.array_equal(apply_sketch(S1, v), apply_sketch(S2, v))


def test_sparse_sign_structure():
    # Canonical CSC: 8 distinct sorted rows per column, entries +-1/sqrt(8).
    for rows, cols in [(50, 20), (9, 300), (6114, 400)]:
        M = _sparse_sign_matrix(SketchOperator(kind="sparse_sign", rows=rows,
                                               cols=cols, seed=1))
        assert sp.isspmatrix_csc(M) and M.shape == (rows, cols)
        assert M.has_canonical_format
        assert np.array_equal(M.indptr, 8 * np.arange(cols + 1))
        picks = M.indices.reshape(cols, 8)
        assert np.all(np.diff(picks, axis=1) > 0)
        assert picks.min() >= 0 and picks.max() < rows
        assert np.array_equal(np.abs(M.data),
                              np.full(8 * cols, 1 / np.sqrt(8)))
        assert 0 < np.count_nonzero(M.data > 0) < 8 * cols


def test_sparse_sign_determinism(rng):
    V = rng.standard_normal((20, 2))
    S = SketchOperator(kind="sparse_sign", rows=50, cols=20, seed=1)
    assert np.array_equal(apply_sketch(S, V), apply_sketch(S, V))


def test_sparse_sign_eight_rows_fill_every_column():
    M = _sparse_sign_matrix(SketchOperator(kind="sparse_sign", rows=8,
                                           cols=50, seed=3))
    assert np.array_equal(M.indices, np.tile(np.arange(8), 50))


def test_sparse_sign_rows_uniform_over_subsets():
    # Floyd's draw: with 10 rows each of the 45 subsets of 8 is equally
    # likely, 1000 of 45000 columns expected (standard deviation 31).
    M = _sparse_sign_matrix(SketchOperator(kind="sparse_sign", rows=10,
                                           cols=45000, seed=7))
    _, counts = np.unique(M.indices.reshape(-1, 8), axis=0,
                          return_counts=True)
    assert len(counts) == 45
    assert np.all(np.abs(counts - 1000) < 6 * 31)


def test_sparse_sign_same_seed_same_matrix():
    def draw(seed):
        return _sparse_sign_matrix(SketchOperator(kind="sparse_sign",
                                                  rows=40, cols=30,
                                                  seed=seed))
    a, b, c = draw(5), draw(5), draw(6)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert (a != c).nnz > 0


@pytest.mark.parametrize("cols", [1, 10, 1000])
def test_sparse_sign_draw_calls_do_not_grow_with_cols(monkeypatch, cols):
    # The whole sketch comes from a fixed number of generator calls (8 row
    # steps and one for the signs), not a Python loop over the columns
    # that would hold the interpreter lock beside the LSMR recurrence.
    calls = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            def call(*args, **kwargs):
                calls.append(name)
                return getattr(self.rng, name)(*args, **kwargs)
            return call

    monkeypatch.setattr(np.random, "default_rng", Counted)
    M = _sparse_sign_matrix(SketchOperator(kind="sparse_sign", rows=12,
                                           cols=cols, seed=1))
    assert M.shape == (12, cols)
    assert len(calls) == 9


def test_sparse_sign_distortion_moderate(rng):
    A = rng.standard_normal((200, 10))
    S = SketchOperator(kind="sparse_sign", rows=120, cols=200, seed=4)
    lo, hi = measure_distortion(S, A, trials=100, seed=0)
    assert max(abs(lo), abs(hi)) <= 0.6


def test_synthetic_eta_exact_distortion(rng):
    A = rng.standard_normal((30, 6))
    U, _ = np.linalg.qr(A)
    S = SketchOperator(kind="synthetic_eta", rows=30, cols=30, seed=2,
                       eta=0.3, subspace=U[:, :2])
    lo, hi = measure_distortion(S, A)
    assert lo == pytest.approx(0.3, abs=1e-10)
    assert hi == pytest.approx(0.3, abs=1e-10)


def test_synthetic_eta_bounded_without_subspace(rng):
    A = rng.standard_normal((25, 5))
    S = SketchOperator(kind="synthetic_eta", rows=25, cols=25, seed=3,
                       eta=0.4)
    lo, hi = measure_distortion(S, A)
    assert -1e-12 <= lo <= 0.4 + 1e-12
    assert -1e-12 <= hi <= 0.4 + 1e-12


def test_identity_distortion_zero(rng):
    A = rng.standard_normal((12, 4))
    S = SketchOperator(kind="identity", rows=12, cols=12)
    lo, hi = measure_distortion(S, A)
    assert abs(lo) <= 1e-12 and abs(hi) <= 1e-12


def test_measure_distortion_rank_deficient(rng):
    A = rng.standard_normal((10, 2))
    A = np.column_stack([A[:, 0], A[:, 0]])
    S = SketchOperator(kind="identity", rows=10, cols=10)
    with pytest.raises(RankDeficient):
        measure_distortion(S, A)


def test_sampled_distortion_within_exact(rng):
    A = rng.standard_normal((60, 6))
    S = SketchOperator(kind="gaussian", rows=36, cols=60, seed=8)
    lo_exact, hi_exact = measure_distortion(S, A)
    lo_s, hi_s = measure_distortion(S, A, trials=200, seed=1)
    assert lo_s <= lo_exact + 1e-12
    assert hi_s <= hi_exact + 1e-12


def _sampled_distortion_loop(S, A, trials, seed):
    """Sampled distortion one direction and one sketch apply at a time."""
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    for _ in range(trials):
        Ay = A @ rng.standard_normal(A.shape[1])
        ny = float(np.linalg.norm(Ay))
        if ny == 0.0:
            continue
        ratio = float(np.linalg.norm(apply_sketch(S, Ay))) / ny
        lo, hi = min(lo, ratio), max(hi, ratio)
    return 1.0 - lo, hi - 1.0


@pytest.mark.parametrize("kind, rows", [
    ("gaussian", 180), ("gaussian", 600), ("sparse_sign", 180)])
def test_sampled_distortion_matches_per_direction_loop(rng, kind, rows):
    # One apply of S to all of AY gives the values of sketching each Ay
    # on its own, over the same directions in the same order; the blocked
    # products and column norms sum in another order, hence a few ulps.
    A = rng.standard_normal((400, 30))
    S = SketchOperator(kind=kind, rows=rows, cols=400, seed=5)
    batched = measure_distortion(S, A, trials=60, seed=11)
    looped = _sampled_distortion_loop(S, A, 60, 11)
    assert batched == pytest.approx(looped, rel=1e-14, abs=1e-15)


def test_sampled_distortion_skips_null_directions():
    # Directions with Ay = 0 carry no ratio.  With A = 0 none is left: A
    # is rank deficient, as the exact path says, not a sketch of distortion
    # (-inf, -inf).
    S = SketchOperator(kind="gaussian", rows=12, cols=30, seed=1)
    for A in (np.zeros((30, 4)), sp.csc_matrix((30, 4))):
        for trials in (0, 5):
            with pytest.raises(RankDeficient):
                measure_distortion(S, A, trials=trials)


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign"])
def test_sampled_distortion_sparse_equals_dense(rng, monkeypatch, kind):
    A = sp.random(200, 8, density=0.2, format="csc",
                  random_state=np.random.RandomState(4)) + sp.eye(200, 8)
    A = sp.csc_matrix(A)
    S = SketchOperator(kind=kind, rows=48, cols=200, seed=2)
    dense = measure_distortion(S, A.toarray(), trials=50, seed=7)

    # The sampled path works with products A @ y and never densifies A.
    def no_toarray(self, *args, **kwargs):
        raise AssertionError("sampled distortion densified A")
    monkeypatch.setattr(type(A), "toarray", no_toarray)
    sparse = measure_distortion(S, A, trials=50, seed=7)
    assert sparse == pytest.approx(dense, rel=1e-12, abs=0)


def test_gaussian_distortion_below_one_over_seeds():
    A = np.random.default_rng(12).standard_normal((300, 12))
    for seed in range(100):
        S = SketchOperator(kind="gaussian", rows=6 * 12, cols=300, seed=seed)
        _, hi = measure_distortion(S, A)
        assert hi < 1.0


def test_regularization_never_worsens_distortion(rng):
    # The Cholesky-factor distortion of the shifted Gram pair is no worse
    # than the unshifted one: the spectrum contracts toward 1.
    A = rng.standard_normal((80, 8))
    S = SketchOperator(kind="gaussian", rows=24, cols=80, seed=6)
    B = apply_sketch(S, A)
    G1, G0 = B.T @ B, A.T @ A
    base = scipy.linalg.eigh(G1, G0, eigvals_only=True)
    lo0, hi0 = 1 - np.sqrt(base[0]), np.sqrt(base[-1]) - 1
    for shift in (1e-3, 1e-1, 1.0, 10.0):
        g = scipy.linalg.eigh(G1 + shift * np.eye(8), G0 + shift * np.eye(8),
                              eigvals_only=True)
        lo, hi = 1 - np.sqrt(g[0]), np.sqrt(g[-1]) - 1
        assert lo <= lo0 + 1e-12
        assert hi <= hi0 + 1e-12


def test_sketch_rows_rule():
    assert [sketch_rows(f, 150) for f in (1.5, 6, 16)] == [225, 900, 2400]
    assert sketch_rows(1.5, 5) == 7  # floor(7.5)
    assert sketch_rows(0.5, 40) == 40  # never fewer rows than columns
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            sketch_rows(bad, 40)
