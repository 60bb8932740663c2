"""Point-cloud data model, fused-file I/O, georeferencing and synthetic scenes.

A fused file carries one scanner return per row together with the
interpolated INS pose at that return: scanner-frame coordinates (meters),
INS attitude as roll/pitch/yaw (degrees), and scanner position in the
mapping frame (meters).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rotation import EulerAngles, matrix_to_angles, rotation_from_angles, rotation_matrices

FUSED_HEADER = "lx,ly,lz,roll_deg,pitch_deg,yaw_deg,sx,sy,sz"
POSE_ORTHO_TOL = 1e-9

_ZERO_ANGLES = EulerAngles(0.0, 0.0, 0.0)


class CloudFormatError(ValueError):
    """Raised when a fused point file cannot be parsed."""


class EmptySelectionError(ValueError):
    """Raised when a crop keeps no points (the solvers need non-empty clouds)."""


class Cloud:
    """Immutable, ordered collection of scan points stored as packed arrays."""

    def __init__(self, l: np.ndarray, ins_rotation: np.ndarray, s: np.ndarray, label: str = ""):
        l = np.asarray(l, dtype=float)
        R = np.asarray(ins_rotation, dtype=float)
        s = np.asarray(s, dtype=float)
        if l.ndim != 2 or l.shape[1] != 3:
            raise ValueError(f"l must be (n, 3), got {l.shape}")
        n = l.shape[0]
        if n == 0:
            raise ValueError("cloud must be non-empty")
        if R.shape != (n, 3, 3) or s.shape != (n, 3):
            raise ValueError("inconsistent array shapes for cloud")
        if not (np.all(np.isfinite(l)) and np.all(np.isfinite(R)) and np.all(np.isfinite(s))):
            raise ValueError("cloud contains non-finite values")
        err = np.abs(np.einsum("nij,nik->njk", R, R) - np.eye(3)).max()
        if err > POSE_ORTHO_TOL:
            raise ValueError(f"non-orthonormal INS pose (max deviation {err:.3e})")
        self._l = l
        self._R = R
        self._s = s
        self._l.setflags(write=False)
        self._R.setflags(write=False)
        self._s.setflags(write=False)
        self.label = label

    def __len__(self) -> int:
        return self._l.shape[0]

    @property
    def l(self) -> np.ndarray:
        return self._l

    @property
    def ins_rotation(self) -> np.ndarray:
        return self._R

    @property
    def s(self) -> np.ndarray:
        return self._s

    @cached_property
    def placement(self) -> np.ndarray:
        """Read-only (9, 3n) matrix K[(a, b), (i, c)] = R_i[c, a] l_i[b], so that
        p_i[c] = s_i[c] + sum over (a, b) of R_b[a, b] K[(a, b), (i, c)]."""
        K = np.einsum("ica,ib->abic", self._R, self._l).reshape(9, -1)
        K.setflags(write=False)
        return K

    def subset(self, idx: np.ndarray, label: str | None = None) -> "Cloud":
        return Cloud(self._l[idx], self._R[idx], self._s[idx],
                     label=self.label if label is None else label)


@dataclass(frozen=True)
class CropBox:
    """Axis-aligned box in the mapping frame, meters."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        mn = np.asarray(self.min, dtype=float)
        mx = np.asarray(self.max, dtype=float)
        if mn.shape != (3,) or mx.shape != (3,):
            raise ValueError("CropBox corners must be 3-vectors")
        if not np.all(mn <= mx):
            raise ValueError("CropBox min must be <= max componentwise")
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.all((p >= self.min) & (p <= self.max), axis=1)


def georeference(cloud: Cloud, boresight: EulerAngles | np.ndarray) -> np.ndarray:
    """Mapping-frame positions p_i = s_i + R_i (R_boresight l_i): (n, 3) for one
    EulerAngles, (m, n, 3) for an (m, 3) array of angles. Each row is the same
    bit for bit whatever m is (einsum, unlike a GEMM, sums in one fixed order)."""
    one = isinstance(boresight, EulerAngles)
    A = np.reshape(boresight.as_array() if one else boresight, (-1, 3))
    Rb = rotation_matrices(A[:, 0], A[:, 1], A[:, 2]).reshape(-1, 9)
    p = cloud.s + np.einsum("mk,kn->mn", Rb, cloud.placement).reshape(len(A), -1, 3)
    return p[0] if one else p


def crop(cloud: Cloud, box: CropBox, boresight_guess: EulerAngles = _ZERO_ANGLES) -> Cloud:
    """Keep points whose georeferenced position (under the guess) lies in the box."""
    mask = box.contains(georeference(cloud, boresight_guess))
    if not mask.any():
        raise EmptySelectionError("crop box selects no points")
    return cloud.subset(np.flatnonzero(mask))


def decimate(cloud: Cloud, keep_every: int) -> Cloud:
    """Uniform decimation, keeping every keep_every-th point."""
    if keep_every < 1:
        raise ValueError("keep_every must be >= 1")
    return cloud.subset(np.arange(0, len(cloud), keep_every))


def load_fused(path: str, label: str = "") -> Cloud:
    """Parse a fused point file into a Cloud. Comment lines start with '#'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CloudFormatError(f"cannot read {path}: {exc}") from exc
    header = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.replace(" ", "")
            if header != FUSED_HEADER:
                raise CloudFormatError(f"{path}: line {lineno}: bad header {line!r}")
            continue
        rows.append((lineno, line.split(",")))
    if header is None:
        raise CloudFormatError(f"{path}: missing header line")
    if not rows:
        raise CloudFormatError(f"{path}: no data rows")
    data = np.empty((len(rows), 9))
    for k, (lineno, parts) in enumerate(rows):
        if len(parts) != 9:
            raise CloudFormatError(f"{path}: line {lineno}: expected 9 fields, got {len(parts)}")
        try:
            data[k] = [float(p) for p in parts]
        except ValueError as exc:
            raise CloudFormatError(f"{path}: line {lineno}: {exc}") from exc
        if not np.all(np.isfinite(data[k])):
            raise CloudFormatError(f"{path}: line {lineno}: non-finite value")
    rpy = np.radians(data[:, 3:6])
    R = rotation_matrices(rpy[:, 0], rpy[:, 1], rpy[:, 2])
    try:
        return Cloud(data[:, 0:3], R, data[:, 6:9], label=label)
    except ValueError as exc:
        raise CloudFormatError(f"{path}: {exc}") from exc


def save_fused(cloud: Cloud, path: str) -> None:
    """Write a Cloud in the fused text format (round-trips through load_fused)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(FUSED_HEADER + "\n")
        for i in range(len(cloud)):
            rpy = matrix_to_angles(cloud.ins_rotation[i]).to_degrees()
            vals = list(cloud.l[i]) + list(rpy) + list(cloud.s[i])
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")


# --- synthetic two-flight-line scenes ---

@dataclass
class GroundTruth:
    """Planted values for a synthetic scene (the p arrays exist in memory only)."""

    angles: EulerAngles
    seed: int
    noise_sigma: float
    hat_object_idx: np.ndarray
    bar_object_idx: np.ndarray
    object_box: CropBox
    p_hat: np.ndarray | None = None  # true mapping-frame positions of the hat returns
    p_bar: np.ndarray | None = None


@dataclass(frozen=True)
class _Patch:
    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    is_object: bool


def _scene_patches() -> list[_Patch]:
    # A floating tent-shaped object (4 faces with distinct normals) over a flat
    # ground patch; at least 3 non-parallel planes are needed to pin down all
    # three angles.
    a = np.array
    patches = [
        # ground, 40 x 40 m at z = 0
        _Patch(a([-20.0, -20.0, 0.0]), a([40.0, 0.0, 0.0]), a([0.0, 40.0, 0.0]), False),
        # tent roof planes, apex line along x at z = 2, base at z = 0.5
        _Patch(a([-2.0, 0.0, 2.0]), a([4.0, 0.0, 0.0]), a([0.0, 1.0, -1.5]), True),
        _Patch(a([-2.0, 0.0, 2.0]), a([4.0, 0.0, 0.0]), a([0.0, -1.0, -1.5]), True),
        # vertical end walls at x = +-2
        _Patch(a([2.0, -1.0, 0.5]), a([0.0, 2.0, 0.0]), a([0.0, 0.0, 1.2]), True),
        _Patch(a([-2.0, -1.0, 0.5]), a([0.0, 2.0, 0.0]), a([0.0, 0.0, 1.2]), True),
    ]
    return patches


_OBJECT_BOX = CropBox(np.array([-2.2, -1.2, 0.4]), np.array([2.2, 1.2, 2.1]))


def _sample_surface(rng: np.random.Generator, n: int, object_fraction: float):
    patches = _scene_patches()
    object_ids = [k for k, p in enumerate(patches) if p.is_object]
    ground_ids = [k for k, p in enumerate(patches) if not p.is_object]
    on_object = rng.random(n) < object_fraction
    choice = np.where(
        on_object,
        rng.choice(object_ids, size=n),
        rng.choice(ground_ids, size=n),
    )
    uv = rng.random((n, 2))
    pts = np.empty((n, 3))
    for k, patch in enumerate(patches):
        mask = choice == k
        if mask.any():
            pts[mask] = patch.origin + np.outer(uv[mask, 0], patch.e1) + np.outer(uv[mask, 1], patch.e2)
    return pts, on_object


def _trajectory(n: int, start: np.ndarray, heading: np.ndarray, yaw0_deg: float,
                phase: float) -> tuple[np.ndarray, np.ndarray]:
    """Straight flight line with gentle attitude/position wobble."""
    t = np.linspace(0.0, 1.0, n)
    s = start + np.outer(t, heading)
    s[:, 0] += 0.3 * np.sin(2.0 * t + phase)
    s[:, 1] += 0.3 * np.cos(3.0 * t + phase)
    s[:, 2] += 0.2 * np.sin(1.5 * t + phase)
    roll = np.radians(1.5 * np.sin(4.0 * t + phase))
    pitch = np.radians(1.0 * np.sin(3.0 * t + 1.0 + phase))
    yaw = np.radians(yaw0_deg + 2.0 * np.sin(2.0 * t + 0.5 + phase))
    return s, rotation_matrices(roll, pitch, yaw)


def synth_generate(
    n_hat: int,
    n_bar: int,
    true_boresight: EulerAngles,
    noise_sigma: float,
    seed: int,
    object_fraction: float = 0.6,
) -> tuple[Cloud, Cloud, GroundTruth]:
    """Two overlapping synthetic scans from opposite flight lines.

    Mapping-frame surface points are drawn from the scene, trajectories are
    simulated, and scanner-frame returns are back-computed through the
    planted boresight (plus optional isotropic Gaussian noise on the returns).
    The first n_hat bar returns hit the same surface points as the hat
    returns, so the noise-free objective at the planted angles is exactly
    zero.
    """
    if n_hat < 1 or n_bar < 1:
        raise ValueError("cloud sizes must be >= 1")
    if n_hat > n_bar:
        raise ValueError("n_hat must be <= n_bar")
    if not noise_sigma >= 0:
        raise ValueError("noise_sigma must be >= 0")
    if not 0 <= object_fraction <= 1:
        raise ValueError("object_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    p_bar, bar_on_object = _sample_surface(rng, n_bar, object_fraction)
    p_hat = p_bar[:n_hat].copy()
    hat_on_object = bar_on_object[:n_hat].copy()

    s_hat, R_hat = _trajectory(n_hat, np.array([-25.0, -8.0, 30.0]), np.array([50.0, 0.0, 0.0]), 3.0, 0.0)
    s_bar, R_bar = _trajectory(n_bar, np.array([25.0, 8.0, 32.0]), np.array([-50.0, 0.0, 0.0]), 177.0, 0.7)

    Rb = rotation_from_angles(true_boresight)

    def back_compute(p, s, R):
        # l = Rb^T R^T (p - s)
        d = p - s
        body = np.einsum("nji,nj->ni", R, d)
        return body @ Rb

    l_hat = back_compute(p_hat, s_hat, R_hat)
    l_bar = back_compute(p_bar, s_bar, R_bar)
    if noise_sigma > 0:
        l_hat = l_hat + rng.normal(0.0, noise_sigma, size=l_hat.shape)
        l_bar = l_bar + rng.normal(0.0, noise_sigma, size=l_bar.shape)

    hat = Cloud(l_hat, R_hat, s_hat, label="hat")
    bar = Cloud(l_bar, R_bar, s_bar, label="bar")
    gt = GroundTruth(
        angles=true_boresight,
        seed=seed,
        noise_sigma=noise_sigma,
        hat_object_idx=np.flatnonzero(hat_on_object),
        bar_object_idx=np.flatnonzero(bar_on_object),
        object_box=_OBJECT_BOX,
        p_hat=p_hat,
        p_bar=p_bar,
    )
    return hat, bar, gt


def save_ground_truth(gt: GroundTruth, path: str) -> None:
    deg = gt.angles.to_degrees()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"alpha_deg={deg[0]!r}\n")
        fh.write(f"beta_deg={deg[1]!r}\n")
        fh.write(f"gamma_deg={deg[2]!r}\n")
        fh.write(f"seed={gt.seed}\n")
        fh.write(f"noise_sigma={gt.noise_sigma!r}\n")
        box = list(gt.object_box.min) + list(gt.object_box.max)
        fh.write("object_box=" + ",".join(repr(float(v)) for v in box) + "\n")
        fh.write("hat_object_indices=" + ",".join(str(i) for i in gt.hat_object_idx) + "\n")
        fh.write("bar_object_indices=" + ",".join(str(i) for i in gt.bar_object_idx) + "\n")


def load_ground_truth(path: str) -> GroundTruth:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key] = val
    angles = EulerAngles.from_degrees(
        float(values["alpha_deg"]), float(values["beta_deg"]), float(values["gamma_deg"])
    )

    def idx(key: str) -> np.ndarray:
        raw = values.get(key, "")
        return np.array([int(v) for v in raw.split(",") if v], dtype=int)

    box = [float(v) for v in values["object_box"].split(",")]
    return GroundTruth(
        angles=angles,
        seed=int(values["seed"]),
        noise_sigma=float(values["noise_sigma"]),
        hat_object_idx=idx("hat_object_indices"),
        bar_object_idx=idx("bar_object_indices"),
        object_box=CropBox(np.array(box[:3]), np.array(box[3:])),
    )
