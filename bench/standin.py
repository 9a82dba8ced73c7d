"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed, so two runs with the same
seed hand the program identical inputs; the content hashes recorded in the
results let that be checked after the fact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

# Shape and nonzero count of the SuiteSparse matrix GL7d12.
GL7D12_SHAPE = (8899, 1019)
GL7D12_NNZ = 37519


def gl7d12_standin(seed: int, shape=GL7D12_SHAPE,
                   nnz: int = GL7D12_NNZ) -> sp.csc_matrix:
    """A sparse stand-in with the shape and nonzero count of GL7d12.

    `nnz` Gaussian entries at distinct random positions plus the m x n
    identity part, with columns scaled by logspace(0, -3) so the matrix is
    ill-conditioned enough that LSMR needs thousands of iterations.
    """
    m, n = shape
    rng = np.random.default_rng([0x6C7D12, seed])
    flat = rng.choice(m * n, size=nnz, replace=False)
    rows, cols = np.divmod(flat, n)
    A = sp.coo_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(m, n))
    A = (A.tocsc() + sp.eye(m, n, format="csc")) @ sp.diags(
        np.logspace(0, -3, n))
    return A.tocsc()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_matrix(A, path) -> dict:
    """Write A as MatrixMarket and describe what was written."""
    scipy.io.mmwrite(str(path), A)
    return {"shape": list(A.shape), "nnz": int(A.nnz),
            "sha256": sha256_file(path)}


@dataclass(frozen=True, eq=False)
class DeskInstance:
    """A dense least-squares instance with an approximate solution X whose
    distance from the least-squares solution is set by `tau`."""

    A: np.ndarray
    B: np.ndarray
    X: np.ndarray
    theta: float
    tau: float
    norm_A_2: float

    @property
    def d(self) -> int:
        return self.B.shape[1]


def _desk_plan(single, multi):
    # tau from 1e-2 to 1e-11 puts mu/||r_theta|| between about 1e-1 and
    # 1e-10, from well inside the estimator regime down to where the
    # eigenvalue formula has lost most of its digits.
    plan = [(*single[i % len(single)], 1, tau, (math.inf, 1.0)[i % 2])
            for i, tau in enumerate((1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11))]
    plan += [(*multi, d, tau, (1.0, math.inf)[i % 2])
             for i, (d, tau) in enumerate(((2, 1e-2), (3, 1e-6), (4, 1e-10)))]
    return tuple(plan)


# (m, n, d, tau, theta) per instance; only the random content depends on
# the seed, so every seed costs the same work.
DESK_PLAN = _desk_plan([(2000, 200), (3000, 120), (1500, 250)], (2000, 150))
TINY_DESK_PLAN = _desk_plan([(60, 8), (80, 5)], (50, 6))


def desk_instance(seed: int, index: int, m: int, n: int, d: int,
                  tau: float, theta: float) -> DeskInstance:
    rng = np.random.default_rng([0xDE5C, seed, index])
    A = rng.standard_normal((m, n)) * np.logspace(0, -2, n)
    B = A @ rng.standard_normal((n, d)) + 0.3 * rng.standard_normal((m, d))
    X_ls = np.linalg.lstsq(A, B, rcond=None)[0]
    E = rng.standard_normal((n, d))
    X = X_ls + (tau * np.linalg.norm(X_ls) / np.linalg.norm(E)) * E
    return DeskInstance(A=A, B=B, X=X, theta=theta, tau=tau,
                        norm_A_2=float(np.linalg.norm(A, 2)))


def desk_batch(seed: int, plan=DESK_PLAN) -> list[DeskInstance]:
    return [desk_instance(seed, i, *spec) for i, spec in enumerate(plan)]


def desk_digest(batch) -> str:
    h = hashlib.sha256()
    for inst in batch:
        for M in (inst.A, inst.B, inst.X):
            h.update(np.ascontiguousarray(M).tobytes())
    return h.hexdigest()
