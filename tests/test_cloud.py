"""Cloud data model, fused-file I/O, georeferencing, cropping, synthetic scenes."""

import numpy as np
import pytest

from boresight.cloud import (
    Cloud,
    CloudFormatError,
    CropBox,
    EmptySelectionError,
    FUSED_HEADER,
    crop,
    decimate,
    georeference,
    load_fused,
    load_ground_truth,
    save_fused,
    save_ground_truth,
    synth_generate,
)
from boresight.rotation import EulerAngles, rotation_from_angles
from boresight.search import evaluate_ub


def identity_cloud(l: np.ndarray, s: np.ndarray | None = None) -> Cloud:
    n = l.shape[0]
    R = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    if s is None:
        s = np.zeros((n, 3))
    return Cloud(l, R, s)


ZERO = EulerAngles(0, 0, 0)


class TestCloud:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            identity_cloud(np.zeros((0, 3)))

    def test_rejects_non_orthonormal_pose(self):
        R = np.broadcast_to(np.eye(3) * 1.01, (2, 3, 3)).copy()
        with pytest.raises(ValueError, match="orthonormal"):
            Cloud(np.zeros((2, 3)), R, np.zeros((2, 3)))

    def test_arrays_read_only(self):
        c = identity_cloud(np.ones((3, 3)))
        with pytest.raises(ValueError):
            c.l[0, 0] = 5.0

    def test_point_and_subset(self):
        c = identity_cloud(np.arange(12.0).reshape(4, 3))
        assert np.allclose(c.l[2], [6, 7, 8])
        sub = c.subset(np.array([1, 3]))
        assert len(sub) == 2
        assert np.allclose(sub.l[1], [9, 10, 11])


class TestGeoreference:
    def test_identity_pose_zero_boresight(self):
        c = identity_cloud(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(georeference(c, ZERO), [[1, 2, 3]])

    def test_hand_rotation(self):
        c = identity_cloud(np.array([[0.0, 1.0, 0.0]]), s=np.array([[10.0, 0.0, 0.0]]))
        p = georeference(c, EulerAngles.from_degrees(90, 0, 0))
        assert np.allclose(p, [[10, 0, 1]], atol=1e-15)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        hat, _, _ = synth_generate(10, 20, EulerAngles.from_degrees(1, -0.5, 0.25), 0.0, seed=1)
        shift = rng.normal(size=3)
        shifted = Cloud(hat.l, hat.ins_rotation, hat.s + shift)
        a = EulerAngles(0.01, 0.02, -0.01)
        assert np.allclose(georeference(shifted, a), georeference(hat, a) + shift, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_batch_rows_equal_single_calls_bitwise(self, m):
        hat, _, _ = synth_generate(40, 50, EulerAngles.from_degrees(1, -0.5, 0.25), 0.02, seed=3)
        angles = np.random.default_rng(m).uniform(-0.04, 0.04, size=(m, 3))
        p = georeference(hat, angles)
        assert p.shape == (m, len(hat), 3)
        for k, a in enumerate(angles):
            assert np.array_equal(p[k], georeference(hat, EulerAngles(*a)))

    @pytest.mark.parametrize("offset, tol", [((0.0, 0.0, 0.0), 1e-12), ((5e5, 5e6, 0.0), 4e-9)])
    def test_batch_matches_rotation_oracle(self, offset, tol):
        """Each row within 1e-12 m of s + R_i (R_b l_i); a UTM-scale offset of s
        moves every row by exactly that offset, up to rounding at its scale."""
        hat, _, _ = synth_generate(30, 40, EulerAngles.from_degrees(1, -0.5, 0.25), 0.02, seed=4)
        angles = np.random.default_rng(5).uniform(-0.04, 0.04, size=(7, 3))
        p = georeference(Cloud(hat.l, hat.ins_rotation, hat.s + offset), angles)
        for k, a in enumerate(angles):
            Rb = rotation_from_angles(EulerAngles(*a))
            expect = hat.s + np.einsum("nij,nj->ni", hat.ins_rotation, hat.l @ Rb.T)
            assert np.abs(p[k] - offset - expect).max() <= tol

    def test_matches_per_point_formula(self):
        hat, _, _ = synth_generate(15, 20, EulerAngles.from_degrees(1, -0.5, 0.25), 0.0, seed=2)
        a = EulerAngles(0.005, -0.003, 0.002)
        Rb = rotation_from_angles(a)
        p = georeference(hat, a)
        for i in range(len(hat)):
            expect = hat.s[i] + hat.ins_rotation[i] @ (Rb @ hat.l[i])
            assert np.allclose(p[i], expect, atol=1e-12)


class TestCrop:
    def test_box_containing_all_keeps_all(self):
        c = identity_cloud(np.random.default_rng(1).normal(size=(20, 3)))
        box = CropBox(np.full(3, -100.0), np.full(3, 100.0))
        assert len(crop(c, box)) == 20

    def test_disjoint_box_raises(self):
        c = identity_cloud(np.zeros((3, 3)))
        box = CropBox(np.full(3, 10.0), np.full(3, 11.0))
        with pytest.raises(EmptySelectionError):
            crop(c, box)

    def test_object_crop_matches_generator_tags(self):
        truth = EulerAngles.from_degrees(1, -0.5, 0.25)
        hat, bar, gt = synth_generate(60, 120, truth, 0.0, seed=9)
        kept = crop(bar, gt.object_box, truth)
        expect = bar.subset(gt.bar_object_idx)
        assert len(kept) == len(expect)
        assert np.allclose(kept.l, expect.l)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            CropBox(np.array([1.0, 0, 0]), np.array([0.0, 1, 1]))


class TestDecimate:
    def test_keep_every_two(self):
        c = identity_cloud(np.arange(18.0).reshape(6, 3))
        d = decimate(c, 2)
        assert len(d) == 3
        assert np.allclose(d.l[1], c.l[2])

    def test_rejects_zero(self):
        c = identity_cloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            decimate(c, 0)


class TestFusedIo:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "c.txt"
        rows = ["1,2,3,0,0,0,10,20,30", "4,5,6,1,2,3,0,0,0", "7,8,9,-1,0.5,0,1,1,1"]
        path.write_text(FUSED_HEADER + "\n" + "\n".join(rows) + "\n")
        c = load_fused(str(path))
        assert len(c) == 3
        assert np.allclose(c.l[0], [1, 2, 3])
        assert np.allclose(c.s[0], [10, 20, 30])

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(f"# comment\n\n{FUSED_HEADER}\n# another\n1,2,3,0,0,0,0,0,0\n")
        assert len(load_fused(str(path))) == 1

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(FUSED_HEADER + "\n1,2,3,0,0,0,0,0\n")
        with pytest.raises(CloudFormatError, match="line 2"):
            load_fused(str(path))

    def test_bad_float_reports_line_number(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(FUSED_HEADER + "\n1,2,3,0,0,0,0,0,0\n1,2,x,0,0,0,0,0,0\n")
        with pytest.raises(CloudFormatError, match="line 3"):
            load_fused(str(path))

    def test_missing_file(self):
        with pytest.raises(CloudFormatError):
            load_fused("/nonexistent/file.txt")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CloudFormatError, match="header"):
            load_fused(str(path))

    def test_round_trip(self, tmp_path):
        truth = EulerAngles.from_degrees(1, -0.5, 0.25)
        hat, _, _ = synth_generate(25, 30, truth, 0.01, seed=4)
        path = tmp_path / "hat.txt"
        save_fused(hat, str(path))
        back = load_fused(str(path))
        assert np.abs(back.l - hat.l).max() <= 1e-9
        assert np.abs(back.s - hat.s).max() <= 1e-9
        assert np.abs(back.ins_rotation - hat.ins_rotation).max() <= 1e-9


class TestSynthGenerate:
    TRUTH = EulerAngles.from_degrees(1, -0.5, 0.25)

    def test_noise_free_lands_on_surface(self):
        hat, bar, gt = synth_generate(30, 60, self.TRUTH, 0.0, seed=3)
        assert np.abs(georeference(hat, self.TRUTH) - gt.p_hat).max() <= 1e-9
        assert np.abs(georeference(bar, self.TRUTH) - gt.p_bar).max() <= 1e-9

    def test_objective_zero_at_truth(self):
        hat, bar, _ = synth_generate(30, 60, self.TRUTH, 0.0, seed=3)
        assert evaluate_ub(hat, bar, self.TRUTH).objective <= 1e-15

    def test_objective_minimal_at_truth(self):
        hat, bar, _ = synth_generate(30, 60, self.TRUTH, 0.0, seed=3)
        f_true = evaluate_ub(hat, bar, self.TRUTH).objective
        rng = np.random.default_rng(8)
        for a, b, g in rng.uniform(-0.03, 0.03, size=(20, 3)):
            assert f_true <= evaluate_ub(hat, bar, EulerAngles(a, b, g)).objective

    def test_deterministic_given_seed(self):
        a = synth_generate(20, 40, self.TRUTH, 0.05, seed=17)
        b = synth_generate(20, 40, self.TRUTH, 0.05, seed=17)
        assert np.array_equal(a[0].l, b[0].l)
        assert np.array_equal(a[1].l, b[1].l)
        assert np.array_equal(a[0].s, b[0].s)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            synth_generate(10, 5, self.TRUTH, 0.0, seed=0)
        with pytest.raises(ValueError):
            synth_generate(0, 5, self.TRUTH, 0.0, seed=0)
        with pytest.raises(ValueError):
            synth_generate(5, 10, self.TRUTH, -0.1, seed=0)

    def test_ground_truth_sidecar_round_trip(self, tmp_path):
        _, _, gt = synth_generate(20, 40, self.TRUTH, 0.02, seed=6)
        path = tmp_path / "truth.txt"
        save_ground_truth(gt, str(path))
        back = load_ground_truth(str(path))
        assert back.angles.to_degrees() == pytest.approx(gt.angles.to_degrees(), abs=1e-12)
        assert back.seed == gt.seed
        assert back.noise_sigma == gt.noise_sigma
        assert np.array_equal(back.hat_object_idx, gt.hat_object_idx)
        assert np.array_equal(back.bar_object_idx, gt.bar_object_idx)

    def test_object_angular_diversity(self):
        # the tagged object must expose at least 3 distinct surface normals,
        # otherwise one boresight angle is unobservable
        _, bar, gt = synth_generate(100, 400, self.TRUTH, 0.0, seed=12)
        pts = gt.p_bar[gt.bar_object_idx]
        assert pts.shape[0] > 30
        spread = pts.max(axis=0) - pts.min(axis=0)
        assert np.all(spread > 0.5)
