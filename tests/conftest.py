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
# The multiple a test may give ub_generous instead (see assert_rows_close).
GENEROUS_C = 2.0e4


def assert_rows_close(got, want, exact=EXACT_COLUMNS,
                      c_generous=ATTAINABLE_C):
    """Trace rows got against want: the columns named in exact bit for
    bit, and every estimator column (NaN exactly where want is NaN) to
    within 1e-12 |want| + c eps ||r_theta||, with want's ||r_theta||.

    c is ATTAINABLE_C = 8 for every estimator column, and c_generous for
    ub_generous.  A gemm over a block of rows sums in another order than
    one row's gemv, and that moves nu and each lower bound by a few
    roundings of ||r_theta||; the relative term carries ub_deflation,
    which sits up to 1e6 times above ||r_theta||.  ub_generous is
    mu_exact's eigenvalue formula on the compressed pair, which cancels
    in mu^2 and so amplifies last-bit moves of its inputs by about
    ||r_theta|| / mu: a test where that ratio is large passes
    c_generous=GENEROUS_C.

    Measured worst cases of |got - want| / (eps ||r_theta||): the
    400 x 40 regression trace against its per-row recording, nu 0.82,
    lb_fresh 1.33, lb_refined 1.64, lb_recycled 0.83 (1.0e-12
    relative, where a'r cancels), ub_generous 2.9 and ub_deflation 579
    (7.3e-16 relative); blocks of 32 against blocks of one on the
    240 x 90 blocked problem, nu 0.054, lb_* 0.19 (lb_recycled, 6.2e-10
    relative), ub_deflation 124 (3.2e-15 relative) and ub_generous
    1.04e4 (5.9e-11 relative).  On lsbe solve with the benchmark's
    solve-converge flags, ub_generous moves up to 2.4e6 (2.5e-3
    relative) where mu / ||r_theta|| nears 1e-8: outside this rule for
    any c_generous that a test would take.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col in exact:
            x, y = getattr(g, col), getattr(w, col)
            assert x == y or (math.isnan(x) and math.isnan(y)), (w.iter, col)
        for col in ESTIMATE_COLUMNS:
            x, y = getattr(g, col), getattr(w, col)
            c = c_generous if col == "ub_generous" else ATTAINABLE_C
            if math.isnan(y):
                assert math.isnan(x), (w.iter, col)
            else:
                tol = 1e-12 * abs(y) + c * EPS * w.norm_r_theta
                assert abs(x - y) <= tol, (w.iter, col, x, y)
