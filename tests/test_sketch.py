import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from lsbe.errors import RankDeficient, ShapeMismatch
from lsbe.sketch import (SketchOperator, _sparse_sign_matrix, apply_sketch,
                         measure_distortion, sketch_rows)


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
    ({"kind": "sparse_sign", "rows": 4, "cols": 6, "nnz_per_col": 0},
     "nnz_per_col"),
    ({"kind": "sparse_sign", "rows": 4, "cols": 6, "nnz_per_col": 5},
     "nnz_per_col"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6, "eta": -0.1}, "eta"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6, "eta": 1.0}, "eta"),
    ({"kind": "synthetic_eta", "rows": 5, "cols": 6}, "rows >= cols"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 1}, "cols >= 2"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6,
      "subspace": np.eye(5, 2)}, "cols x"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6,
      "subspace": np.eye(6, 1)}, "cols x"),
    ({"kind": "synthetic_eta", "rows": 6, "cols": 6,
      "subspace": 2.0 * np.eye(6, 2)}, "orthonormal")])
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


def test_gaussian_streaming_matches_materialized():
    # Row blocks drawn sequentially from one generator reproduce the full
    # matrix draw, so the blocked product equals the dense one.
    rows, m = 600, 12  # spans multiple internal blocks
    seed = 21
    V = np.random.default_rng(99).standard_normal((m, 2))
    S_full = (np.random.default_rng(seed).standard_normal((rows, m))
              / np.sqrt(rows))
    out = apply_sketch(SketchOperator(kind="gaussian", rows=rows, cols=m,
                                      seed=seed), V)
    assert np.allclose(out, S_full @ V, rtol=0, atol=1e-13)


def _gaussian_block_loop(S, V):
    """The single-thread Gaussian apply: draw a block of 256 rows, scale
    it, take its product with V, repeat."""
    squeeze = False
    if not sp.issparse(V):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V, squeeze = V[:, None], True
    rng = np.random.default_rng(S.seed)
    scale = 1.0 / np.sqrt(S.rows)
    out = np.empty((S.rows, V.shape[1]))
    for start in range(0, S.rows, 256):
        stop = min(start + 256, S.rows)
        block = rng.standard_normal((stop - start, S.cols)) * scale
        if sp.issparse(V):
            out[start:stop] = (V.T @ block.T).T
        else:
            out[start:stop] = block @ V
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
    # single-thread loop.
    m = 60
    V = np.random.default_rng(5).standard_normal((m, 3))
    S = SketchOperator(kind="gaussian", rows=1100, cols=m, seed=9)
    expected = _gaussian_block_loop(S, V)
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
    S = SketchOperator(kind="sparse_sign", rows=50, cols=20, seed=1,
                       nnz_per_col=8)
    M = _sparse_sign_matrix(S).toarray()
    assert M.shape == (50, 20)
    counts = (M != 0).sum(axis=0)
    assert np.all(counts == 8)
    vals = np.unique(np.abs(M[M != 0]))
    assert np.allclose(vals, 1.0 / np.sqrt(8.0))


def test_sparse_sign_determinism(rng):
    V = rng.standard_normal((20, 2))
    S = SketchOperator(kind="sparse_sign", rows=50, cols=20, seed=1)
    assert np.array_equal(apply_sketch(S, V), apply_sketch(S, V))


def test_sparse_sign_distortion_moderate(rng):
    A = rng.standard_normal((200, 10))
    S = SketchOperator(kind="sparse_sign", rows=120, cols=200, seed=4,
                       nnz_per_col=8)
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
    # Directions with Ay = 0 carry no ratio; with A = 0 none is left.
    S = SketchOperator(kind="gaussian", rows=12, cols=10, seed=1)
    A = np.zeros((10, 3))
    assert measure_distortion(S, A, trials=5) == \
        _sampled_distortion_loop(S, A, 5, 0) == (-math.inf, -math.inf)


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
