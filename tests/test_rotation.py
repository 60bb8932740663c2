"""Rotation construction, quadratic parameterization, and interval enclosures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boresight.rotation import (
    ROTATION_MONOMIALS,
    AngleBox,
    EulerAngles,
    matrix_to_angles,
    rotation_from_angles,
    rotation_from_quad,
    rotation_interval,
    rotation_jacobian,
    rotation_matrices,
    trig_bounds,
)


def reference_rotation(a: float, b: float, g: float) -> np.ndarray:
    """Independent oracle: explicit Rx(a) @ Ry(b) @ Rz(g) composition."""
    rx = np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])
    ry = np.array([[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]])
    rz = np.array([[math.cos(g), -math.sin(g), 0], [math.sin(g), math.cos(g), 0], [0, 0, 1]])
    return rx @ ry @ rz


angle = st.floats(min_value=-3.1, max_value=3.1, allow_nan=False)


class TestEulerAngles:
    def test_degree_round_trip(self):
        a = EulerAngles.from_degrees(1.0, -0.5, 0.25)
        assert a.to_degrees() == pytest.approx((1.0, -0.5, 0.25), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EulerAngles(float("nan"), 0.0, 0.0)

    def test_rejects_magnitude_at_pi(self):
        with pytest.raises(ValueError):
            EulerAngles(math.pi, 0.0, 0.0)


class TestAngleBox:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            AngleBox(0.1, -0.1, 0, 0, 0, 0)

    def test_rejects_width_over_pi(self):
        with pytest.raises(ValueError):
            AngleBox(-2.0, 2.0, 0, 0, 0, 0)

    def test_symmetric_deg(self):
        box = AngleBox.symmetric_deg(2.0)
        assert box.lows() == pytest.approx([-math.radians(2)] * 3)
        assert box.highs() == pytest.approx([math.radians(2)] * 3)
        assert box.contains(box.midpoint())

    def test_volume_and_widths(self):
        box = AngleBox(0, 0.2, -0.1, 0.1, 0, 0.5)
        assert box.widths() == pytest.approx([0.2, 0.2, 0.5])
        assert box.volume() == pytest.approx(0.2 * 0.2 * 0.5)

    def test_sample_inside(self):
        box = AngleBox.symmetric_deg(2.0)
        samples = box.sample(np.random.default_rng(0), 100)
        assert np.all(samples >= box.lows()) and np.all(samples <= box.highs())


class TestRotationFromAngles:
    def test_identity(self):
        np.testing.assert_allclose(rotation_from_angles(EulerAngles(0, 0, 0)), np.eye(3))

    def test_quarter_turn_about_x(self):
        R = rotation_from_angles(EulerAngles.from_degrees(90, 0, 0))
        np.testing.assert_allclose(R, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_reported_calibration_angles_match_oracle(self):
        a = EulerAngles.from_degrees(-1.434, 0.940, -0.282)
        np.testing.assert_allclose(
            rotation_from_angles(a), reference_rotation(a.alpha, a.beta, a.gamma), atol=1e-15
        )

    def test_orthonormality_and_determinant_random(self):
        rng = np.random.default_rng(42)
        for a, b, g in rng.uniform(-3.0, 3.0, size=(1000, 3)):
            R = rotation_from_angles(EulerAngles(a, b, g))
            assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(R) - 1.0) <= 1e-12

    def test_matches_composition_oracle_random(self):
        rng = np.random.default_rng(7)
        for a, b, g in rng.uniform(-3.0, 3.0, size=(200, 3)):
            np.testing.assert_allclose(
                rotation_from_angles(EulerAngles(a, b, g)), reference_rotation(a, b, g), atol=1e-14
            )

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        triples = rng.uniform(-3.0, 3.0, size=(50, 3))
        Rs = rotation_matrices(triples[:, 0], triples[:, 1], triples[:, 2])
        for k, (a, b, g) in enumerate(triples):
            np.testing.assert_allclose(Rs[k], rotation_from_angles(EulerAngles(a, b, g)))

    @given(angle, angle, angle)
    @settings(max_examples=100, deadline=None)
    def test_property_matches_oracle(self, a, b, g):
        np.testing.assert_allclose(
            rotation_from_angles(EulerAngles(a, b, g)), reference_rotation(a, b, g), atol=1e-13
        )


class TestMatrixToAngles:
    def test_round_trip_small_angles(self):
        rng = np.random.default_rng(1)
        for a, b, g in rng.uniform(-0.5, 0.5, size=(100, 3)):
            rec = matrix_to_angles(rotation_from_angles(EulerAngles(a, b, g)))
            assert (rec.alpha, rec.beta, rec.gamma) == pytest.approx((a, b, g), abs=1e-12)


class TestRotationFromQuad:
    def test_identity(self):
        np.testing.assert_allclose(rotation_from_quad(1, 0, 1, 0, 1, 0, 0, 0), np.eye(3))

    def test_matches_trig_form_random(self):
        rng = np.random.default_rng(9)
        for a, b, g in rng.uniform(-3.0, 3.0, size=(1000, 3)):
            R = rotation_from_quad(
                math.cos(a), math.sin(a),
                math.cos(b), math.sin(b),
                math.cos(g), math.sin(g),
                math.cos(g) * math.sin(b), math.sin(b) * math.sin(g),
            )
            np.testing.assert_allclose(R, rotation_from_angles(EulerAngles(a, b, g)), atol=1e-12)

    def test_monomials_distinct_and_sorted(self):
        """The MIQCQP georeference rows write one term per monomial, unmerged,
        with its variable names as the table lists them."""
        monomials = [names for terms in ROTATION_MONOMIALS for _, names in terms]
        assert len(monomials) == len(set(monomials)) == 13
        assert all(names == tuple(sorted(names)) for names in monomials)

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            rotation_from_quad(0.99, 0.2, 1, 0, 1, 0, 0, 0)

    def test_rejects_inconsistent_products(self):
        b, g = 0.3, 0.4
        with pytest.raises(ValueError):
            rotation_from_quad(
                1, 0, math.cos(b), math.sin(b), math.cos(g), math.sin(g), 0.5, math.sin(b) * math.sin(g)
            )


class TestTrigBounds:
    def test_symmetric_two_degrees(self):
        tb = trig_bounds(AngleBox.symmetric_deg(2.0))
        two = math.radians(2.0)
        assert tb["u_alpha"] == pytest.approx((math.cos(two), 1.0))
        assert tb["v_alpha"] == pytest.approx((-math.sin(two), math.sin(two)))

    def test_degenerate_box_gives_point_intervals(self):
        theta = 0.3
        tb = trig_bounds(AngleBox(theta, theta, theta, theta, theta, theta))
        for name in ("alpha", "beta", "gamma"):
            assert tb[f"u_{name}"] == pytest.approx((math.cos(theta), math.cos(theta)))
            assert tb[f"v_{name}"] == pytest.approx((math.sin(theta), math.sin(theta)))

    def test_sampling_soundness_random_boxes(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            lows = rng.uniform(-3.0, 2.9, size=3)
            highs = np.minimum(lows + rng.uniform(0, 3.0, size=3), 3.1)
            box = AngleBox.from_arrays(lows, highs)
            tb = trig_bounds(box)
            samples = box.sample(rng, 2000)
            for axis, name in enumerate(("alpha", "beta", "gamma")):
                u_lo, u_hi = tb[f"u_{name}"]
                v_lo, v_hi = tb[f"v_{name}"]
                c, s = np.cos(samples[:, axis]), np.sin(samples[:, axis])
                assert c.min() >= u_lo - 1e-12 and c.max() <= u_hi + 1e-12
                assert s.min() >= v_lo - 1e-12 and s.max() <= v_hi + 1e-12

    def test_interval_extrema_attained_when_critical_point_inside(self):
        # box straddling pi/2 must report sin upper bound exactly 1
        tb = trig_bounds(AngleBox(1.0, 2.0, 0, 0, 0, 0))
        assert tb["v_alpha"][1] == 1.0

    def test_w_products_sound(self):
        rng = np.random.default_rng(2)
        box = AngleBox.symmetric_deg(30.0)
        tb = trig_bounds(box)
        samples = box.sample(rng, 5000)
        w_gb = np.cos(samples[:, 2]) * np.sin(samples[:, 1])
        w_bg = np.sin(samples[:, 1]) * np.sin(samples[:, 2])
        assert w_gb.min() >= tb["w_gb"][0] - 1e-12 and w_gb.max() <= tb["w_gb"][1] + 1e-12
        assert w_bg.min() >= tb["w_bg"][0] - 1e-12 and w_bg.max() <= tb["w_bg"][1] + 1e-12

    def test_variables_in_model_order(self):
        tb = trig_bounds(AngleBox.symmetric_deg(2.0))
        assert list(tb) == ["u_alpha", "v_alpha", "u_beta", "v_beta",
                            "u_gamma", "v_gamma", "w_gb", "w_bg"]


def imul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ineg(a):
    return (-a[1], -a[0])


def reference_interval(box: AngleBox) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: the rotation enclosure with every entry written out by hand
    from the trig intervals, clamped to [-1, 1]."""
    tb = trig_bounds(box)
    ua, ub, ug = tb["u_alpha"], tb["u_beta"], tb["u_gamma"]
    va, vb, vg = tb["v_alpha"], tb["v_beta"], tb["v_gamma"]
    entries = [
        [imul(ub, ug), ineg(imul(ub, vg)), vb],
        [iadd(imul(ua, vg), imul(va, tb["w_gb"])),
         iadd(imul(ua, ug), ineg(imul(va, tb["w_bg"]))),
         ineg(imul(ub, va))],
        [iadd(imul(va, vg), ineg(imul(ua, tb["w_gb"]))),
         iadd(imul(va, ug), imul(ua, tb["w_bg"])),
         imul(ua, ub)],
    ]
    lo = np.array([[max(-1.0, e[0]) for e in row] for row in entries])
    hi = np.array([[min(1.0, e[1]) for e in row] for row in entries])
    return lo, hi


class TestRotationInterval:
    def test_matches_hand_written_entries_bitwise(self):
        """The table-driven enclosure equals the hand-written one exactly on
        wide, narrow and degenerate boxes, and on boxes that contain 0 or
        +-pi/2 (where the cos/sin ranges reach their extrema)."""
        rng = np.random.default_rng(18)
        boxes = []
        for kind in range(5):
            for _ in range(250):
                c = rng.uniform(-1.5, 1.5, size=3)
                if kind == 0:
                    h = rng.uniform(0.0, 0.75, size=3)  # widths up to 1.5 rad
                elif kind == 1:
                    h = rng.uniform(0.0, 5e-4, size=3)  # widths up to 1e-3 rad
                elif kind == 2:
                    h = np.where(rng.random(3) < 0.5, 0.0, rng.uniform(0.0, 0.1, size=3))
                elif kind == 3:
                    c, h = rng.uniform(-0.01, 0.01, size=3), rng.uniform(0.01, 0.5, size=3)
                else:
                    c = rng.choice([-1.0, 1.0], size=3) * (math.pi / 2 + rng.uniform(-0.05, 0.05, size=3))
                    h = rng.uniform(0.05, 0.3, size=3)
                boxes.append(AngleBox.from_arrays(c - h, c + h))
        boxes.append(AngleBox(0, 0, 0, 0, 0, 0))
        for box in boxes:
            ri = rotation_interval(box)
            lo, hi = reference_interval(box)
            assert np.array_equal(ri.lo, lo) and np.array_equal(ri.hi, hi)

    def test_degenerate_box_is_exact(self):
        a = EulerAngles(0.2, -0.1, 0.05)
        box = AngleBox(a.alpha, a.alpha, a.beta, a.beta, a.gamma, a.gamma)
        ri = rotation_interval(box)
        R = rotation_from_angles(a)
        np.testing.assert_allclose(ri.lo, R, atol=1e-15)
        np.testing.assert_allclose(ri.hi, R, atol=1e-15)

    def test_sampling_soundness(self):
        box = AngleBox.symmetric_deg(2.0)
        ri = rotation_interval(box)
        rng = np.random.default_rng(5)
        samples = box.sample(rng, 10_000)
        Rs = rotation_matrices(samples[:, 0], samples[:, 1], samples[:, 2])
        assert np.all(Rs >= ri.lo - 1e-12) and np.all(Rs <= ri.hi + 1e-12)

    def test_inclusion_monotone_under_bisection(self):
        box = AngleBox.symmetric_deg(2.0)
        parent = rotation_interval(box)
        lows, highs = box.lows(), box.highs()
        mids = 0.5 * (lows + highs)
        for bits in range(8):
            lo = lows.copy()
            hi = highs.copy()
            for axis in range(3):
                if bits >> axis & 1:
                    lo[axis] = mids[axis]
                else:
                    hi[axis] = mids[axis]
            child = rotation_interval(AngleBox.from_arrays(lo, hi))
            assert np.all(child.lo >= parent.lo - 1e-15)
            assert np.all(child.hi <= parent.hi + 1e-15)

    def test_shrinking_boxes_converge(self):
        a = EulerAngles(0.01, -0.02, 0.015)
        R = rotation_from_angles(a)
        for half in (0.1, 0.01, 0.001, 1e-6):
            box = AngleBox(
                a.alpha - half, a.alpha + half,
                a.beta - half, a.beta + half,
                a.gamma - half, a.gamma + half,
            )
            ri = rotation_interval(box)
            assert ri.contains(R, tol=1e-15)
            assert ri.widths().max() <= 6 * half + 1e-12
        np.testing.assert_allclose(ri.midpoint(), R, atol=1e-5)


class TestRotationJacobian:
    @pytest.mark.parametrize("angles", [(0.0, 0.0, 0.0), (0.0175, -0.0087, 0.0044),
                                        (0.4, -1.1, 2.5), (-2.9, 1.3, -0.7)])
    def test_matches_central_differences(self, angles):
        J = rotation_jacobian(EulerAngles(*angles))
        h = 1e-5
        for k in range(3):
            step = np.zeros(3)
            step[k] = h
            (plus, minus) = rotation_matrices(*np.array([angles + step, angles - step]).T)
            np.testing.assert_allclose(J[k], (plus - minus) / (2 * h), rtol=0, atol=1e-8)
