import math

import numpy as np
import pytest

from lsbe.solver import ESTIMATE_COLUMNS


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def random_orthonormal(rng, n, k):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


EPS = float(np.finfo(float).eps)
# The trace columns that no estimator computes: the refresh, the true mu
# and the counts.  Evaluating rows in blocks must leave them bit for bit.
EXACT_COLUMNS = ("iter", "norm_r", "norm_Atr", "norm_r_theta", "mu_true",
                 "matvec_count", "rmatvec_count")
# Multiple c of eps ||r_theta|| that an estimator column may move by, in
# the rule assert_rows_close states.
ATTAINABLE_C = 8.0


def assert_rows_close(got, want, exact=EXACT_COLUMNS):
    """Trace rows got against want: the columns named in exact bit for
    bit, and every estimator column (NaN exactly where want is NaN) to
    within 1e-12 |want| + c eps ||r_theta||, with want's ||r_theta|| and
    c = ATTAINABLE_C = 8.

    A gemm over a block of rows sums in another order than one row's
    gemv, and that moves nu and each bound by a few roundings of
    ||r_theta||; the relative term carries ub_deflation, which sits up to
    1e6 times above ||r_theta||.

    Measured worst cases of |got - want| / (eps ||r_theta||): the
    400 x 40 regression trace against its per-row recording, nu 0.94,
    lb_fresh 1.74, lb_refined 1.64, lb_recycled 1.58 (4.2e-16
    relative), ub_generous 2.6 and ub_deflation 304 (5.3e-16 relative);
    blocks of 32 against blocks of one on the 240 x 90 blocked problem
    (a row every 1 or 7 iterations, 0-2 refinement steps), nu 0.063,
    lb_fresh 0.089, lb_refined 0.21, lb_recycled 0.083 (5.6e-16
    relative), ub_deflation 82 (1.2e-14 relative) and ub_generous 2.8
    (1.6e-14 relative).  On lsbe solve with the benchmark's
    solve-converge flags (stand-in seeds 1-3), the lower bounds move up
    to 1.4 and ub_generous up to 19 (3.8e-8 relative, where
    mu / ||r_theta|| nears 1e-8): outside this rule on one late row each
    of seeds 1 and 3, runs no test compares.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col in exact:
            x, y = getattr(g, col), getattr(w, col)
            assert x == y or (math.isnan(x) and math.isnan(y)), (w.iter, col)
        for col in ESTIMATE_COLUMNS:
            x, y = getattr(g, col), getattr(w, col)
            if math.isnan(y):
                assert math.isnan(x), (w.iter, col)
            else:
                tol = 1e-12 * abs(y) + ATTAINABLE_C * EPS * w.norm_r_theta
                assert abs(x - y) <= tol, (w.iter, col, x, y)


def attainable(A, r, ref):
    """Relative 1e-9 plus the eps-scaled floor of a double-precision route
    on the stored data."""
    m = A.shape[0]
    scale = float(np.linalg.norm(A, 2)) + float(np.linalg.norm(r))
    return 1e-9 * ref + 16.0 * math.sqrt(m) * EPS * scale


def mp_mu(A, r):
    """mu(A, r) = min(||r||, sigma_min([A, ||r|| (I - r r+)])) to 50 digits
    on the stored double data."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m = len(r)
        rm = [mpmath.mpf(float(v)) for v in r]
        nr2 = mpmath.fsum(v * v for v in rm)
        nr = mpmath.sqrt(nr2)
        W = mpmath.matrix(
            [[mpmath.mpf(float(v)) for v in A[i]]
             + [nr * ((i == j) - rm[i] * rm[j] / nr2) for j in range(m)]
             for i in range(m)])
        smin = min(mpmath.svd_r(W, compute_uv=False))
        return float(min(nr, smin))
