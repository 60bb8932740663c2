"""Shared fixtures: synthetic scenes, angle boxes and a distance oracle reused
across test modules."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from boresight.cloud import synth_generate
from boresight.rotation import AngleBox, EulerAngles

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


@pytest.fixture(scope="session")
def planted_angles() -> EulerAngles:
    return PLANTED


@pytest.fixture(scope="session")
def box2deg() -> AngleBox:
    return AngleBox.symmetric_deg(2.0)


@pytest.fixture(scope="session")
def tiny_scene(planted_angles):
    """Small noise-free scene suitable for brute-force oracles."""
    hat, bar, gt = synth_generate(20, 40, planted_angles, 0.0, seed=11)
    return hat, bar, gt


@pytest.fixture(scope="session")
def small_scene(planted_angles):
    """Medium noise-free scene for solver-level tests."""
    hat, bar, gt = synth_generate(30, 60, planted_angles, 0.0, seed=5)
    return hat, bar, gt


@pytest.fixture(scope="session")
def noisy_scene(planted_angles):
    """The noisy 10x20 scene (hat, bar) of the node-bound oracles."""
    hat, bar, _ = synth_generate(10, 20, planted_angles, 0.02, seed=3)
    return hat, bar


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def _qp_min_sq_dist(a, b) -> float:
    """Independent oracle: min squared distance between conv(a) and conv(b),
    as a convex QP over the barycentric weights solved by SLSQP."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = a.shape[0]
    M = np.vstack([a, -b])  # x @ M = la @ a - lb @ b for x = (la, lb)

    def fun(x):
        v = x @ M
        return float(v @ v), 2.0 * (M @ v)

    sums = np.zeros((2, M.shape[0]))
    sums[0, :na] = 1.0
    sums[1, na:] = 1.0
    x0 = np.concatenate([np.full(na, 1.0 / na), np.full(b.shape[0], 1.0 / b.shape[0])])
    res = minimize(
        fun, x0, jac=True, method="SLSQP", bounds=[(0.0, 1.0)] * M.shape[0],
        constraints={"type": "eq", "fun": lambda x: sums @ x - 1.0, "jac": lambda x: sums},
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return max(float(res.fun), 0.0)


@pytest.fixture(scope="session")
def qp_min_sq_dist():
    return _qp_min_sq_dist
