"""Certified pair elimination: objective rule, closest-point rule, safety oracle."""

import numpy as np
import pytest

from boresight.cloud import synth_generate
from boresight.reduce import PairSet, reduce_pairs
from boresight.relax import compute_pair_set
from boresight.rotation import AngleBox, EulerAngles, rotation_matrices
from boresight.search import evaluate_ub


def make_pairs(rows):
    """rows: list of (i, j, c_lo, c_hi)."""
    i, j, lo, hi = (np.array(col, dtype=float) for col in zip(*rows))
    return PairSet(n_hat=int(i.max()) + 1, i=i.astype(int), j=j.astype(int), c_lo=lo, c_hi=hi)


class TestPairSet:
    def test_dense_counts(self):
        ps = PairSet.dense(3, 5)
        assert ps.size == 15 and ps.covers_all_i()
        assert np.array_equal(ps.candidates_for(1), np.arange(5))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            make_pairs([(0, 1, 0, 1), (0, 1, 0, 2)])

    @pytest.mark.parametrize("i, j, match", [
        ([0, -1], [0, 0], "hat indices"),
        ([0, 2], [0, 0], "hat indices"),
        ([0, 1], [0, -1], "bar indices"),
        ([0, 1], [2, -1], "bar indices"),  # keys 2 and 2: not reported as duplicates
    ], ids=["negative_i", "i_at_n_hat", "negative_j", "negative_j_key_collision"])
    def test_rejects_indices_out_of_range(self, i, j, match):
        with pytest.raises(ValueError, match=match):
            PairSet(n_hat=2, i=i, j=j, c_lo=[0.0, 0.0], c_hi=[1.0, 1.0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            make_pairs([(0, 1, 3.0, 1.0)])

    def test_rejects_negative_lower_bound(self):
        with pytest.raises(ValueError):
            make_pairs([(0, 1, -1.0, 1.0)])

    def test_select_returns_the_masked_arrays(self):
        ps = make_pairs([(0, 0, 0.5, 4.0), (0, 1, 0.0, 2.0), (1, 0, 1.0, 7.0), (1, 2, 2.0, 3.0)])
        mask = np.array([True, False, True, True])
        sub = ps.select(mask)
        assert isinstance(sub, PairSet) and sub.n_hat == ps.n_hat
        for name in ("i", "j", "c_lo", "c_hi"):
            got, full = getattr(sub, name), getattr(ps, name)
            assert got.dtype == full.dtype
            assert np.array_equal(got, full[mask])

    def test_min_c_hi_per_i(self):
        ps = make_pairs([(0, 0, 0, 4.0), (0, 1, 0, 2.0), (1, 0, 0, 7.0)])
        assert np.allclose(ps.min_c_hi_per_i(), [2.0, 7.0])
        ps = make_pairs([(0, 0, 1.5, 4.0), (0, 1, 0.5, 2.0), (1, 0, 3.0, 7.0)])
        assert np.allclose(ps.min_c_lo_per_i(), [0.5, 3.0])


class TestReducePairs:
    def test_vacuous_bounds_unchanged(self):
        ps = make_pairs([(0, 0, 0, np.inf), (0, 1, 0, np.inf), (1, 0, 0, np.inf)])
        res = reduce_pairs(ps, np.inf)
        assert res.pairs.size == 3 and not res.infeasible
        assert res.removed_total == 0

    def test_closest_point_rule_toy(self):
        # pair (c_lo, c_hi) = (5, 6) can never beat (0, 1) for the same i
        ps = make_pairs([(0, 0, 0.0, 1.0), (0, 1, 5.0, 6.0)])
        res = reduce_pairs(ps, np.inf)
        assert res.pairs.size == 1
        assert res.removed_closest == 1
        assert res.pairs.j[0] == 0

    def test_objective_rule(self):
        ps = make_pairs([(0, 0, 0.5, 1.0), (0, 1, 3.0, 4.0)])
        res = reduce_pairs(ps, 2.0)
        assert res.removed_objective == 1
        assert res.pairs.size == 1

    def test_ties_retained(self):
        # strict inequality only: c_lo == min c_hi keeps the pair
        ps = make_pairs([(0, 0, 0.0, 1.0), (0, 1, 1.0, 2.0)])
        res = reduce_pairs(ps, np.inf)
        assert res.pairs.size == 2

    def test_infeasible_when_i_loses_everything(self):
        ps = make_pairs([(0, 0, 0.0, 1.0), (1, 0, 9.0, 10.0)])
        res = reduce_pairs(ps, 5.0)
        assert res.infeasible

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(0, 10, size=40)
        hi = lo + rng.uniform(0, 5, size=40)
        ps = PairSet(n_hat=4, i=np.repeat(np.arange(4), 10), j=np.tile(np.arange(10), 4),
                     c_lo=lo, c_hi=hi)
        once = reduce_pairs(ps, 8.0)
        twice = reduce_pairs(once.pairs, 8.0)
        assert twice.removed_total == 0
        assert np.array_equal(once.pairs.j, twice.pairs.j)

    def test_smaller_f_upper_removes_superset(self):
        rng = np.random.default_rng(1)
        lo = rng.uniform(0, 10, size=60)
        hi = lo + rng.uniform(0, 5, size=60)
        ps = PairSet(n_hat=6, i=np.repeat(np.arange(6), 10), j=np.tile(np.arange(10), 6),
                     c_lo=lo, c_hi=hi)
        loose = reduce_pairs(ps, 9.0)
        tight = reduce_pairs(ps, 4.0)
        kept_loose = set(zip(loose.pairs.i.tolist(), loose.pairs.j.tolist()))
        kept_tight = set(zip(tight.pairs.i.tolist(), tight.pairs.j.tolist()))
        assert kept_tight <= kept_loose

    def test_rejects_negative_f_upper(self):
        ps = PairSet.dense(1, 1)
        with pytest.raises(ValueError):
            reduce_pairs(ps, -1.0)


class TestReductionSafetyOracle:
    """Brute-force audit: at every admissible grid angle, the nearest-neighbor
    assignment must use only retained pairs."""

    def run_audit(self, seed: int, step_deg: float = 0.01, span_deg: float = 0.05):
        truth = EulerAngles.from_degrees(1.0, -0.5, 0.25)
        hat, bar, _ = synth_generate(15, 30, truth, 0.0, seed=seed)
        box = AngleBox.symmetric_deg(2.0)
        f_upper = evaluate_ub(hat, bar, truth).objective + 1e-9  # valid upper bound
        ps = compute_pair_set(hat, bar, box)
        res = reduce_pairs(ps, f_upper)
        assert not res.infeasible
        kept = set(zip(res.pairs.i.tolist(), res.pairs.j.tolist()))

        # grid around the optimum (the only region where f <= f_upper can hold)
        offsets = np.arange(-span_deg, span_deg + step_deg / 2, step_deg)
        grid = np.stack(np.meshgrid(offsets, offsets, offsets), axis=-1).reshape(-1, 3)
        grid = np.radians(grid) + truth.as_array()
        Rs = rotation_matrices(grid[:, 0], grid[:, 1], grid[:, 2])
        violations = 0
        for R in Rs:
            p_hat = hat.s + np.einsum("nij,jk,nk->ni", hat.ins_rotation, R, hat.l)
            p_bar = bar.s + np.einsum("nij,jk,nk->ni", bar.ins_rotation, R, bar.l)
            d = p_hat[:, None, :] - p_bar[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            f = d2.min(axis=1).sum()
            if f > f_upper:
                continue  # angle cannot beat the incumbent; removals need not hold
            for i, j in enumerate(d2.argmin(axis=1)):
                if (i, int(j)) not in kept:
                    violations += 1
        return violations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_retained_pair_violations(self, seed):
        assert self.run_audit(seed) == 0

    def test_closest_rule_removals_never_argmin_anywhere(self):
        """Stronger audit for the closest-point rule alone (no objective rule):
        a removed pair is never the argmin at any grid angle in the box."""
        truth = EulerAngles.from_degrees(1.0, -0.5, 0.25)
        hat, bar, _ = synth_generate(10, 20, truth, 0.0, seed=7)
        box = AngleBox.symmetric_deg(2.0)
        ps = compute_pair_set(hat, bar, box)
        res = reduce_pairs(ps, np.inf)  # objective rule disabled
        kept = set(zip(res.pairs.i.tolist(), res.pairs.j.tolist()))
        rng = np.random.default_rng(2)
        angles = box.sample(rng, 400)
        Rs = rotation_matrices(angles[:, 0], angles[:, 1], angles[:, 2])
        for R in Rs:
            p_hat = hat.s + np.einsum("nij,jk,nk->ni", hat.ins_rotation, R, hat.l)
            p_bar = bar.s + np.einsum("nij,jk,nk->ni", bar.ins_rotation, R, bar.l)
            d = p_hat[:, None, :] - p_bar[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", d, d)
            for i, j in enumerate(d2.argmin(axis=1)):
                assert (i, int(j)) in kept
