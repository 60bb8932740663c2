"""Euler-angle rotation matrices and rigorous interval enclosures over angle boxes.

Convention: R(alpha, beta, gamma) = Rx(alpha) @ Ry(beta) @ Rz(gamma), i.e.
roll about x, then pitch about y, then yaw about z. All angles are radians
internally; degrees appear only at user-facing boundaries.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

QUAD_TOL = 1e-9

# The entries of R = Rx Ry Rz, row-major, as sums of monomials in the eight
# variables of the quadratic parameterization: u_i = cos and v_i = sin of
# angle i, and the products w_gb = u_gamma * v_beta, w_bg = v_beta * v_gamma.
# Each term is (coefficient, variable names in sorted order). The 13 monomials
# are distinct, so each occurs in exactly one entry: the MIQCQP georeference
# constraints write one term per monomial without merging. rotation_from_quad,
# rotation_interval and those constraints all read R from this table.
ROTATION_MONOMIALS: list[list[tuple[float, tuple[str, ...]]]] = [
    [(1.0, ("u_beta", "u_gamma"))],
    [(-1.0, ("u_beta", "v_gamma"))],
    [(1.0, ("v_beta",))],
    [(1.0, ("u_alpha", "v_gamma")), (1.0, ("v_alpha", "w_gb"))],
    [(1.0, ("u_alpha", "u_gamma")), (-1.0, ("v_alpha", "w_bg"))],
    [(-1.0, ("u_beta", "v_alpha"))],
    [(1.0, ("v_alpha", "v_gamma")), (-1.0, ("u_alpha", "w_gb"))],
    [(1.0, ("u_gamma", "v_alpha")), (1.0, ("u_alpha", "w_bg"))],
    [(1.0, ("u_alpha", "u_beta"))],
]


def _require_finite(**named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EulerAngles:
    """Boresight angles (radians). Calibration offsets are small, so |angle| < pi."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        _require_finite(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if abs(value) >= math.pi:
                raise ValueError(f"|{name}| must be < pi, got {value!r}")

    @classmethod
    def from_degrees(cls, alpha: float, beta: float, gamma: float) -> "EulerAngles":
        return cls(math.radians(alpha), math.radians(beta), math.radians(gamma))

    def to_degrees(self) -> tuple[float, float, float]:
        return (math.degrees(self.alpha), math.degrees(self.beta), math.degrees(self.gamma))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma], dtype=float)


@dataclass(frozen=True)
class AngleBox:
    """Per-axis interval bounds on (alpha, beta, gamma), radians."""

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float
    gamma_lo: float
    gamma_hi: float

    def __post_init__(self) -> None:
        _require_finite(
            alpha_lo=self.alpha_lo, alpha_hi=self.alpha_hi,
            beta_lo=self.beta_lo, beta_hi=self.beta_hi,
            gamma_lo=self.gamma_lo, gamma_hi=self.gamma_hi,
        )
        for name, lo, hi in self._axes():
            if lo > hi:
                raise ValueError(f"{name}: lo {lo!r} > hi {hi!r}")
            if hi - lo > math.pi:
                raise ValueError(f"{name}: width {hi - lo!r} exceeds pi")

    def _axes(self):
        return (
            ("alpha", self.alpha_lo, self.alpha_hi),
            ("beta", self.beta_lo, self.beta_hi),
            ("gamma", self.gamma_lo, self.gamma_hi),
        )

    @classmethod
    def symmetric_deg(cls, half_width_deg: float) -> "AngleBox":
        h = math.radians(half_width_deg)
        return cls(-h, h, -h, h, -h, h)

    @classmethod
    def from_arrays(cls, lows: np.ndarray, highs: np.ndarray) -> "AngleBox":
        return cls(lows[0], highs[0], lows[1], highs[1], lows[2], highs[2])

    def lows(self) -> np.ndarray:
        return np.array([self.alpha_lo, self.beta_lo, self.gamma_lo], dtype=float)

    def highs(self) -> np.ndarray:
        return np.array([self.alpha_hi, self.beta_hi, self.gamma_hi], dtype=float)

    def widths(self) -> np.ndarray:
        return self.highs() - self.lows()

    def midpoint(self) -> EulerAngles:
        mid = 0.5 * (self.lows() + self.highs())
        return EulerAngles(mid[0], mid[1], mid[2])

    def volume(self) -> float:
        return float(np.prod(self.widths()))

    def contains(self, angles: EulerAngles, tol: float = 0.0) -> bool:
        a = angles.as_array()
        return bool(np.all(a >= self.lows() - tol) and np.all(a <= self.highs() + tol))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n random angle triples inside the box, shape (n, 3)."""
        return rng.uniform(self.lows(), self.highs(), size=(n, 3))


def rotation_matrices(alphas: np.ndarray, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Vectorized rotation matrices, shape (n, 3, 3)."""
    ca, sa = np.cos(alphas), np.sin(alphas)
    cb, sb = np.cos(betas), np.sin(betas)
    cg, sg = np.cos(gammas), np.sin(gammas)
    out = np.empty((len(ca), 3, 3), dtype=float)
    out[:, 0, 0] = cb * cg
    out[:, 0, 1] = -cb * sg
    out[:, 0, 2] = sb
    out[:, 1, 0] = ca * sg + sa * sb * cg
    out[:, 1, 1] = ca * cg - sa * sb * sg
    out[:, 1, 2] = -cb * sa
    out[:, 2, 0] = sa * sg - ca * sb * cg
    out[:, 2, 1] = sa * cg + ca * sb * sg
    out[:, 2, 2] = ca * cb
    return out


def rotation_from_angles(angles: EulerAngles) -> np.ndarray:
    """3x3 rotation matrix for the given boresight angles (rotation_matrices' one row)."""
    return rotation_matrices(*angles.as_array()[:, None])[0]


def rotation_jacobian(angles: EulerAngles) -> np.ndarray:
    """Partial derivatives of R(alpha, beta, gamma), shape (3, 3, 3): entry k
    is dR/d(angle k), angles ordered (alpha, beta, gamma)."""
    ca, sa = math.cos(angles.alpha), math.sin(angles.alpha)
    cb, sb = math.cos(angles.beta), math.sin(angles.beta)
    cg, sg = math.cos(angles.gamma), math.sin(angles.gamma)
    return np.array(
        [
            [
                [0.0, 0.0, 0.0],
                [-sa * sg + ca * sb * cg, -sa * cg - ca * sb * sg, -cb * ca],
                [ca * sg + sa * sb * cg, ca * cg - sa * sb * sg, -sa * cb],
            ],
            [
                [-sb * cg, sb * sg, cb],
                [sa * cb * cg, -sa * cb * sg, sb * sa],
                [-ca * cb * cg, ca * cb * sg, -ca * sb],
            ],
            [
                [-cb * sg, -cb * cg, 0.0],
                [ca * cg - sa * sb * sg, -ca * sg - sa * sb * cg, 0.0],
                [sa * cg + ca * sb * sg, -sa * sg + ca * sb * cg, 0.0],
            ],
        ],
        dtype=float,
    )


def matrix_to_angles(R: np.ndarray) -> EulerAngles:
    """Recover (alpha, beta, gamma) from a rotation matrix. Assumes |beta| < pi/2."""
    R = np.asarray(R, dtype=float)
    beta = math.asin(max(-1.0, min(1.0, R[0, 2])))
    gamma = math.atan2(-R[0, 1], R[0, 0])
    alpha = math.atan2(-R[1, 2], R[2, 2])
    return EulerAngles(alpha, beta, gamma)


def rotation_from_quad(
    u_alpha: float, v_alpha: float,
    u_beta: float, v_beta: float,
    u_gamma: float, v_gamma: float,
    w_gb: float, w_bg: float,
) -> np.ndarray:
    """Rotation matrix from the quadratic (cos/sin substitution) parameterization.

    u_i = cos of angle i, v_i = sin of angle i; the auxiliary products are
    w_gb = u_gamma * v_beta and w_bg = v_beta * v_gamma.
    """
    _require_finite(
        u_alpha=u_alpha, v_alpha=v_alpha, u_beta=u_beta, v_beta=v_beta,
        u_gamma=u_gamma, v_gamma=v_gamma, w_gb=w_gb, w_bg=w_bg,
    )
    for name, u, v in (("alpha", u_alpha, v_alpha), ("beta", u_beta, v_beta), ("gamma", u_gamma, v_gamma)):
        if abs(u * u + v * v - 1.0) > QUAD_TOL:
            raise ValueError(f"(u, v) for {name} not on the unit circle: {u * u + v * v!r}")
    if abs(w_gb - u_gamma * v_beta) > QUAD_TOL:
        raise ValueError("w_gb inconsistent with u_gamma * v_beta")
    if abs(w_bg - v_beta * v_gamma) > QUAD_TOL:
        raise ValueError("w_bg inconsistent with v_beta * v_gamma")
    x = dict(u_alpha=u_alpha, v_alpha=v_alpha, u_beta=u_beta, v_beta=v_beta,
             u_gamma=u_gamma, v_gamma=v_gamma, w_gb=w_gb, w_bg=w_bg)
    entries = [functools.reduce(operator.add, (c * math.prod(x[n] for n in names) for c, names in terms))
               for terms in ROTATION_MONOMIALS]
    return np.array(entries, dtype=float).reshape(3, 3)


# --- interval arithmetic helpers (closed intervals as (lo, hi) tuples) ---

def _imul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def _iadd(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    return (a[0] + b[0], a[1] + b[1])


def _cos_interval(lo: float, hi: float) -> tuple[float, float]:
    cands = [math.cos(lo), math.cos(hi)]
    if lo <= 0.0 <= hi:
        cands.append(1.0)
    if lo <= math.pi <= hi or lo <= -math.pi <= hi:
        cands.append(-1.0)
    return (max(-1.0, min(cands)), min(1.0, max(cands)))


def _sin_interval(lo: float, hi: float) -> tuple[float, float]:
    cands = [math.sin(lo), math.sin(hi)]
    if lo <= math.pi / 2 <= hi:
        cands.append(1.0)
    if lo <= -math.pi / 2 <= hi:
        cands.append(-1.0)
    return (max(-1.0, min(cands)), min(1.0, max(cands)))


def trig_bounds(box: AngleBox) -> dict[str, tuple[float, float]]:
    """Intervals of the eight rotation variables over a box, by name, in the
    order u_alpha, v_alpha, u_beta, v_beta, u_gamma, v_gamma, w_gb, w_bg.
    The cos/sin ranges are exact (monotonicity splits)."""
    iv = {}
    for name, lo, hi in box._axes():
        iv[f"u_{name}"] = _cos_interval(lo, hi)
        iv[f"v_{name}"] = _sin_interval(lo, hi)
    iv["w_gb"] = _imul(iv["u_gamma"], iv["v_beta"])
    iv["w_bg"] = _imul(iv["v_beta"], iv["v_gamma"])
    return iv


def _term_interval(coef: float, names: tuple[str, ...], iv: dict) -> tuple[float, float]:
    lo, hi = functools.reduce(_imul, (iv[n] for n in names))
    return (coef * lo, coef * hi) if coef > 0 else (coef * hi, coef * lo)


@dataclass(frozen=True)
class RotationInterval:
    """Entrywise interval enclosure of the rotation matrix over an angle box."""

    lo: np.ndarray
    hi: np.ndarray

    def contains(self, R: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(R >= self.lo - tol) and np.all(R <= self.hi + tol))

    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


def rotation_interval(box: AngleBox) -> RotationInterval:
    """Interval matrix enclosing rotation_from_angles(a) for every a in the box:
    ROTATION_MONOMIALS evaluated in interval arithmetic over trig_bounds(box),
    clamped to [-1, 1]."""
    iv = trig_bounds(box)
    entries = [functools.reduce(_iadd, (_term_interval(c, names, iv) for c, names in terms))
               for terms in ROTATION_MONOMIALS]
    lo = np.array([max(-1.0, e[0]) for e in entries]).reshape(3, 3)
    hi = np.array([min(1.0, e[1]) for e in entries]).reshape(3, 3)
    return RotationInterval(lo=lo, hi=hi)
