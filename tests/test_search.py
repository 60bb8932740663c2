"""Objective evaluation and the adaptive grid search."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from boresight import search
from boresight.cloud import POSE_ORTHO_TOL, Cloud, decimate, georeference, synth_generate
from boresight.relax import GEOREF_ULPS, POINT_SLACK
from boresight.rotation import AngleBox, EulerAngles, rotation_matrices
from boresight.search import AgsConfig, ags_run, evaluate_many, evaluate_ub
from boresight.spatial import NnIndex

PLANTED = EulerAngles.from_degrees(1.0, -0.5, 0.25)


def brute_force_objective(hat, bar, angles):
    """Oracle: double-loop sum of min squared distances."""
    p_hat = georeference(hat, angles)
    p_bar = georeference(bar, angles)
    total = 0.0
    for ph in p_hat:
        d = p_bar - ph
        total += float(np.einsum("ij,ij->i", d, d).min())
    return total


class TestEvaluateUb:
    def test_self_match_is_zero(self):
        hat, _, _ = synth_generate(20, 25, PLANTED, 0.0, seed=0)
        for angles in (EulerAngles(0, 0, 0), EulerAngles(0.01, -0.02, 0.03)):
            ev = evaluate_ub(hat, hat, angles)
            assert ev.objective == 0.0
            assert np.array_equal(ev.assignment, np.arange(len(hat)))

    def test_matches_brute_force(self, small_scene):
        hat, bar, _ = small_scene
        rng = np.random.default_rng(1)
        for a, b, g in rng.uniform(-0.03, 0.03, size=(10, 3)):
            angles = EulerAngles(a, b, g)
            ev = evaluate_ub(hat, bar, angles)
            assert ev.objective == pytest.approx(brute_force_objective(hat, bar, angles), rel=1e-12)

    def test_assignment_reproduces_objective(self, small_scene):
        hat, bar, _ = small_scene
        angles = EulerAngles(0.005, 0.001, -0.004)
        ev = evaluate_ub(hat, bar, angles)
        p_hat = georeference(hat, angles)
        p_bar = georeference(bar, angles)
        diffs = p_hat - p_bar[ev.assignment]
        assert ev.objective == pytest.approx(float(np.einsum("ij,ij->i", diffs, diffs).sum()), abs=1e-9)

    def test_zero_at_truth_noise_free(self, small_scene):
        hat, bar, _ = small_scene
        assert evaluate_ub(hat, bar, PLANTED).objective <= 1e-15


class TestEvaluateMany:
    def test_rows_equal_evaluate_ub_bitwise(self, small_scene):
        hat, bar, _ = small_scene
        angles = np.random.default_rng(4).uniform(-0.03, 0.03, size=(9, 3))
        objectives, assignments = evaluate_many(hat, bar, angles)
        assert objectives.shape == (9,) and assignments.shape == (9, len(hat))
        for k, a in enumerate(angles):
            ev = evaluate_ub(hat, bar, EulerAngles(*a))
            assert objectives[k] == ev.objective
            assert np.array_equal(assignments[k], ev.assignment)


def per_angle_trees(hat, bar, angles):
    """Oracle: one NnIndex per angle and query_many's objective."""
    p_hat, p_bar = georeference(hat, angles), georeference(bar, angles)
    rows = [NnIndex(p_bar[k]).query_many(p_hat[k]) for k in range(len(angles))]
    return np.array([d2.sum() for _, d2 in rows]), np.array([j for j, _ in rows])


@pytest.fixture
def trees_built(monkeypatch):
    """Counts the KD-trees that search builds."""
    built = []

    def counting(points):
        built.append(len(points))
        return NnIndex(points)

    monkeypatch.setattr(search, "NnIndex", counting)
    return built


class TestCandidatePath:
    """A batch whose candidate lists certify shares one tree, bitwise equal to a
    tree per angle."""

    @pytest.mark.parametrize("noise, offset", [(0.0, (0.0, 0.0, 0.0)), (0.02, (0.0, 0.0, 0.0)),
                                               (0.02, (5e5, 5e6, 0.0))])
    def test_every_round_bitwise_equal_to_per_angle_trees(self, noise, offset, trees_built,
                                                          monkeypatch):
        hat, bar, _ = synth_generate(30, 60, PLANTED, noise, seed=5)
        hat, bar = (Cloud(c.l, c.ins_rotation, c.s + np.asarray(offset)) for c in (hat, bar))
        real, shared = search.evaluate_many, []

        def checked(h, b, angles):
            before = len(trees_built)
            objectives, assignments = real(h, b, angles)
            expected = per_angle_trees(h, b, angles)
            assert np.array_equal(objectives, expected[0])
            assert np.array_equal(assignments, expected[1])
            shared.append(len(trees_built) - before == 1)
            return objectives, assignments

        monkeypatch.setattr(search, "evaluate_many", checked)
        res = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=AngleBox.symmetric_deg(2.0),
                                          max_rounds=5))
        per_round = len(shared) // 5
        assert res.n_evals == 5000 and len(shared) == 5 * per_round
        assert not any(shared[:per_round])  # the ±2° round is too wide to share a tree
        assert all(shared[-3 * per_round:])  # rounds 3-5 share one tree per batch

    def test_identical_angles_share_one_tree(self, trees_built):
        """A batch of one angle repeated has delta = 0: each list holds the nearest."""
        hat, bar, _ = synth_generate(30, 60, PLANTED, 0.02, seed=5)
        angles = np.tile(PLANTED.as_array(), (7, 1))
        objectives, assignments = evaluate_many(hat, bar, angles)
        assert len(trees_built) == 1
        expected = per_angle_trees(hat, bar, angles)
        assert np.array_equal(objectives, expected[0])
        assert np.array_equal(assignments, expected[1])


def screen_scene(noise, offset=(0.0, 0.0, 0.0), lift=0.0):
    """A 100x250 scene shifted by offset; lift raises the screen's sampled hat
    points, so that they carry most of every cell's objective."""
    hat, bar, _ = synth_generate(100, 250, PLANTED, noise, seed=5)
    up = np.zeros((len(hat), 3))
    up[::search._SCREEN_STRIDE, 2] = lift
    return (Cloud(hat.l, hat.ins_rotation, hat.s + np.asarray(offset) + up),
            Cloud(bar.l, bar.ins_rotation, bar.s + np.asarray(offset)))


@pytest.fixture
def screen_calls(monkeypatch):
    """Records evaluate_many's calls as (hat points, angles, objectives)."""
    real, calls = search.evaluate_many, []

    def recording(h, b, angles):
        objectives, assignments = real(h, b, angles)
        calls.append((len(h), angles.copy(), objectives))
        return objectives, assignments

    monkeypatch.setattr(search, "evaluate_many", recording)
    return calls


class TestScreen:
    """Each round screens its cells on a strided hat sample (a lower bound) and
    evaluates in full only the cells whose bound can still win."""

    @pytest.mark.parametrize("noise, offset, lift", [
        (0.0, (0.0, 0.0, 0.0), 0.0), (0.02, (0.0, 0.0, 0.0), 0.0),
        (0.02, (5e5, 5e6, 0.0), 0.0), (0.02, (0.0, 0.0, 0.0), 1.0)])
    def test_bitwise_equal_to_unscreened(self, noise, offset, lift, monkeypatch):
        hat, bar = screen_scene(noise, offset, lift)
        cfg = AgsConfig(n_d=10, t_max=120.0, box=AngleBox.symmetric_deg(2.0), max_rounds=5)
        screened = ags_run(hat, bar, cfg)
        monkeypatch.setattr(search, "_SCREEN_MIN_POINTS", len(hat) + 1)
        full = ags_run(hat, bar, cfg)
        assert screened.n_screened > 0 and full.n_screened == 0
        assert screened.n_evals + screened.n_screened == full.n_evals == 5000
        assert screened.rounds == full.rounds == 5
        assert screened.best.objective == full.best.objective
        assert screened.best.angles == full.best.angles
        assert np.array_equal(screened.best.assignment, full.best.assignment)

    def test_screened_out_cells_cannot_win(self, screen_calls, monkeypatch):
        """Every cell whose block or sampled bound is at most the incumbent is
        screened or evaluated in full, and every cell left out is worse than the
        incumbent. The lifted sample makes the bound nearly tight, so a looser
        one would miss cells."""
        hat, bar = screen_scene(0.02, lift=1.0)
        calls, real, blocks = screen_calls, search._block_bounds, []

        def recording(sample, b, centers, n_d, deadline):
            bounds = real(sample, b, centers, n_d, deadline)
            blocks.append((centers.copy(), bounds.copy()))  # ags_run raises bounds in place
            return bounds

        monkeypatch.setattr(search, "_block_bounds", recording)
        res = ags_run(hat, bar, AgsConfig(n_d=6, t_max=120.0, box=AngleBox.symmetric_deg(2.0),
                                          max_rounds=2))
        block = {tuple(a): v for centers, bounds in blocks for a, v in zip(centers, bounds)}
        low = {tuple(a): v for n, angles, values in calls if n < len(hat)
               for a, v in zip(angles, values)}
        full = {tuple(a) for n, angles, _ in calls if n == len(hat) for a in angles}
        assert len(block) == 2 * 6**3 and len(full) == res.n_evals
        assert set(low) <= set(block) and full <= set(block)
        out = set(block) - full
        assert len(out) == res.n_screened > len(set(low) - full) > 0
        assert all(low[a] > res.best.objective for a in set(low) - full)
        assert all(v <= evaluate_ub(hat, bar, EulerAngles(*a)).objective
                   for bounds in (block, low) for a, v in bounds.items())
        assert [a for a in out if evaluate_ub(hat, bar, EulerAngles(*a)).objective
                <= res.best.objective] == []
        assert [a for a, v in low.items() if v <= res.best.objective and a not in full] == []
        assert [a for a, v in block.items()
                if v <= res.best.objective and a not in low and a not in full] == []

    def test_round_that_rules_nothing_out_stops_screening(self, screen_calls, monkeypatch):
        """On a ±0.016° box around the planted angles no bound exceeds the first
        round's incumbent. The first round screens every cell and evaluates every
        cell in full, and so does the second: the first round never pauses a
        level. Neither level rules a cell out in the second round, so the third
        runs no block stage and no screen and evaluates all its cells in full."""
        hat, bar = screen_scene(0.02)
        half = np.radians(0.016)
        box = AngleBox.from_arrays(PLANTED.as_array() - half, PLANTED.as_array() + half)
        real, blocks, passes = search._block_bounds, [], []

        def recording(*args):
            blocks.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(search, "_block_bounds", recording)
        for rounds in (2, 3):
            screen_calls.clear()
            blocks.clear()
            res = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=box, max_rounds=rounds))
            passes.append([(n < len(hat), len(a)) for n, a, _ in screen_calls])
        two, three = passes
        assert sum(n for screen, n in two if screen) == 2000
        assert sum(n for screen, n in two if not screen) == 2000
        assert three[:len(two)] == two and blocks == [1000, 1000]
        assert not any(screen for screen, _ in three[len(two):])
        assert sum(n for _, n in three[len(two):]) == 1000
        assert res.n_evals == 3000 and res.n_screened == 0

    @pytest.mark.parametrize("n_hat, n_bar, seed", [(100, 250, 1), (100, 250, 5), (200, 500, 9)])
    def test_refines_least_bound_first(self, n_hat, n_bar, seed, screen_calls, monkeypatch):
        """With one cell per batch, a round refines only cells whose bound is at
        most its best objective: every screened cell's block bound, and every
        fully evaluated cell's block and screened bounds. An early full
        evaluation of a cell that a lower bound would later rule out fails."""
        hat, bar, _ = synth_generate(n_hat, n_bar, PLANTED, 0.02, seed=seed)
        real, blocks = search._block_bounds, []

        def recording(*args):  # a copy: ags_run raises the bounds in place
            blocks.append((args[2].copy(), real(*args)))
            return blocks[-1][1].copy()

        monkeypatch.setattr(search, "_block_bounds", recording)
        monkeypatch.setattr(search, "BATCH_BYTES", 24 * (len(hat) + len(bar)))
        res = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=AngleBox.symmetric_deg(2.0),
                                          max_rounds=1))
        (centers, bounds), = blocks
        block = {tuple(a): v for a, v in zip(centers, bounds)}
        low = {tuple(a): v for n, angles, values in screen_calls if n < len(hat)
               for a, v in zip(angles, values)}
        full = {tuple(a) for n, angles, _ in screen_calls if n == len(hat) for a in angles}
        assert all(len(a) == 1 for _, a, _ in screen_calls)
        assert len(full) == res.n_evals and res.n_evals + res.n_screened == 1000
        cap = res.best.objective * (1.0 + search._SCREEN_MARGIN)
        assert [a for a in low if block[a] > cap] == []
        assert [a for a in full if max(block[a], low[a]) > cap] == []

    def test_time_budget_during_first_screen_evaluates_lowest_cell(self, screen_calls,
                                                                   monkeypatch):
        """Screen batches of 4 cells that take 0.1 s each: the budget runs out
        within the first round's screen, before any cell is evaluated in full.
        The round then evaluates one cell in full, the live cell of least bound
        (block bound, or screened bound once screened), and ends; n_screened
        counts the cells whose bound exceeds its objective."""
        hat, bar = screen_scene(0.02)
        calls = screen_calls
        real, real_blocks, pause, blocks = search.evaluate_many, search._block_bounds, 0.1, []

        def slow_screen(h, b, angles):
            if len(h) < len(hat):
                time.sleep(pause)
            return real(h, b, angles)

        def recording(*args):  # a copy: ags_run raises the bounds in place
            blocks.append((args[2].copy(), real_blocks(*args)))
            return blocks[-1][1].copy()

        monkeypatch.setattr(search, "evaluate_many", slow_screen)
        monkeypatch.setattr(search, "_block_bounds", recording)
        n_sample = len(range(0, len(hat), search._SCREEN_STRIDE))
        monkeypatch.setattr(search, "BATCH_BYTES", 4 * 24 * (n_sample + len(bar)))
        t_max = 0.3
        t0 = time.monotonic()
        res = ags_run(hat, bar, AgsConfig(n_d=4, t_max=t_max, box=AngleBox.symmetric_deg(2.0)))
        elapsed = time.monotonic() - t0
        assert elapsed < t_max + pause + 0.15
        (centers, bound), = blocks
        for n, angles, values in calls[:-1]:
            assert n < len(hat)
            for a, v in zip(angles, values):
                bound[np.flatnonzero((centers == a).all(axis=1))] = v
        screened = sum(len(a) for _, a, _ in calls[:-1])
        assert res.rounds == 1 and res.n_evals == 1 and calls[-1][0] == len(hat)
        assert 0 < screened < 64 and screened % 4 == 0
        assert np.array_equal(calls[-1][1][0], centers[np.argmin(bound)])
        assert res.best.objective == calls[-1][2][0]
        assert res.n_screened == np.sum(bound > res.best.objective) > 0
        assert res.best.objective == evaluate_ub(hat, bar, res.best.angles).objective

    def test_time_budget_on_last_screen_batch(self, screen_calls, monkeypatch):
        """A first round whose one screen batch outlasts t_max evaluates only its
        lowest-screened cell in full; a later round's full screen that outlasts
        it ends the run with no full evaluation."""
        hat, bar = screen_scene(0.02)
        calls = screen_calls
        real, pause = search.evaluate_many, 0.1

        def slow_screen(h, b, angles):
            if len(h) < len(hat):
                time.sleep(pause)
            return real(h, b, angles)

        monkeypatch.setattr(search, "evaluate_many", slow_screen)
        cfg = AgsConfig(n_d=3, t_max=0.05, box=AngleBox.symmetric_deg(2.0))
        res = ags_run(hat, bar, cfg)
        assert [(n < len(hat), len(a)) for n, a, _ in calls] == [(True, 27), (False, 1)]
        assert res.rounds == 1 and res.n_evals == 1
        assert res.n_screened == np.sum(calls[0][2] > res.best.objective)
        lowest = int(np.argmin(calls[0][2]))
        assert np.array_equal(res.best.angles.as_array(), calls[0][1][lowest])

        first = ags_run(hat, bar, AgsConfig(n_d=3, t_max=120.0, box=cfg.box, max_rounds=1))
        screens = []

        def slow_second_screen(h, b, angles):
            if len(h) < len(hat):
                screens.append(len(angles))
                if len(screens) == 2:
                    time.sleep(pause)
            return real(h, b, angles)

        monkeypatch.setattr(search, "evaluate_many", slow_second_screen)
        calls.clear()
        res = ags_run(hat, bar, AgsConfig(n_d=3, t_max=pause, box=cfg.box))
        assert res.rounds == 2 and screens == [27, 27] and calls[-1][0] < len(hat)
        assert res.best.objective == first.best.objective


    def test_block_stage_honours_time_budget(self, screen_calls, monkeypatch):
        """Block batches of 4 blocks that take 0.1 s each: the first round's 125
        blocks would take 3.2 s. The block stage stops within one batch after
        t_max, the blocks it did not reach keep bound 0, and the round, with no
        screen, evaluates in full the least of their cells."""
        hat, bar = screen_scene(0.02)
        real, pause, batches = search._nearest_many, 0.1, []

        def slow(h, b, angles):
            if len(h) < len(hat):
                batches.append(len(angles))
                time.sleep(pause)
            return real(h, b, angles)

        monkeypatch.setattr(search, "_nearest_many", slow)
        n_sample = len(range(0, len(hat), search._SCREEN_STRIDE))
        monkeypatch.setattr(search, "BATCH_BYTES", 4 * 24 * (n_sample + len(bar)))
        box, t_max = AngleBox.symmetric_deg(2.0), 0.3
        t0 = time.monotonic()
        res = ags_run(hat, bar, AgsConfig(n_d=10, t_max=t_max, box=box))
        elapsed = time.monotonic() - t0
        assert elapsed < t_max + pause + 0.15
        assert 0 < len(batches) < 32 and set(batches) == {4}
        assert [n for n, _, _ in screen_calls] == [len(hat)]
        assert res.rounds == 1 and res.n_evals == 1
        a, b, g = np.unravel_index(np.arange(1000), (10, 10, 10))
        unreached = np.flatnonzero(((a // 2) * 5 + b // 2) * 5 + g // 2 >= 4 * len(batches))
        centers = search._cell_centers(box, 10, None, box)
        assert np.array_equal(res.best.angles.as_array(), centers[unreached[0]])


def per_block_trees(sample, bar, centers, n_d):
    """Oracle: _block_bounds as one loop over the blocks, one KD-tree each."""
    reach = (1.0 + 2.0 * POSE_ORTHO_TOL) * (np.linalg.norm(sample.l, axis=1)
                                            + np.linalg.norm(bar.l, axis=1).max())
    scale = max(np.abs(sample.s).max(), np.abs(bar.s).max())
    slack = max(POINT_SLACK, 2 * GEOREF_ULPS * np.spacing(scale))
    index, e = np.arange(len(centers)).reshape(n_d, n_d, n_d), search._BLOCK_EDGE
    bounds = np.empty(len(centers))
    for a, b, g in itertools.product(range(0, n_d, e), repeat=3):
        cells = index[a:a + e, b:b + e, g:g + e].ravel()
        theta = centers[cells].mean(axis=0)
        R = rotation_matrices(*np.vstack([theta, centers[cells]]).T)
        m = np.sqrt(np.einsum("kab,kab->k", R[1:] - R[0], R[1:] - R[0]).max() / 2.0)
        d2 = NnIndex(georeference(bar, theta[None])[0]).query_many(
            georeference(sample, theta[None])[0])[1]
        bounds[cells] = (np.maximum(0.0, np.sqrt(d2) - m * reach - slack) ** 2).sum()
    return bounds


class TestBatchedBlockBounds:
    """The block stage shares _nearest_many's batches, bitwise equal to a KD-tree
    per block."""

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (5e5, 9.9e6, 0.0)])
    @pytest.mark.parametrize("n_d", [1, 3, 10])
    def test_bitwise_equal_to_per_block_trees(self, noise, offset, n_d, trees_built):
        """n_d = 1 gives one-cell blocks (m = 0), 3 partial edge blocks."""
        hat, bar = screen_scene(noise, offset)
        sample = decimate(hat, search._SCREEN_STRIDE)
        p, half = PLANTED.as_array(), np.radians([0.4, 0.7, 0.3])
        for box in (AngleBox.symmetric_deg(2.0), AngleBox.from_arrays(p - half, p + half),
                    AngleBox.from_arrays(p - 1e-4, p + 1e-4), AngleBox.from_arrays(p - 5e-7, p + 5e-7)):
            centers = search._cell_centers(box, n_d, None, box)
            bounds = search._block_bounds(sample, bar, centers, n_d)
            assert np.array_equal(bounds, per_block_trees(sample, bar, centers, n_d))
        if n_d == 10:  # 125 blocks per box; the two narrowest share a tree per batch
            assert len(trees_built) < 3 * 125  # search's trees only, not the oracle's


class TestPayOrPause:
    """After a run's first round a bound level stays on only while it rules out
    more cells than it passes on; a restart from the full box turns it back on."""

    @pytest.mark.parametrize("n_hat, n_bar, seed", [(100, 250, 1), (100, 250, 2), (100, 250, 3),
                                                    (200, 500, 9)])
    def test_same_best_as_levels_forced_on(self, n_hat, n_bar, seed, monkeypatch):
        hat, bar, _ = synth_generate(n_hat, n_bar, PLANTED, 0.02, seed=seed)
        cfg = AgsConfig(n_d=10, t_max=120.0, box=AngleBox.symmetric_deg(2.0), max_rounds=5)
        real, paid = search._pays, []

        def recording(ruled_out, passed_on):
            paid.append(real(ruled_out, passed_on))
            return paid[-1]

        monkeypatch.setattr(search, "_pays", recording)
        paused = ags_run(hat, bar, cfg)
        monkeypatch.setattr(search, "_pays", lambda ruled_out, passed_on: True)
        forced = ags_run(hat, bar, cfg)
        assert not all(paid)  # a level was paused
        assert paused.best.objective == forced.best.objective
        assert paused.best.angles == forced.best.angles
        assert np.array_equal(paused.best.assignment, forced.best.assignment)
        assert paused.n_evals + paused.n_screened == forced.n_evals + forced.n_screened == 5000

    def test_level_off_after_passing_on_more_than_it_rules_out(self, screen_calls, monkeypatch):
        """Per round, from the cells it screens and evaluates in full: the block
        level passes on the cells screened or evaluated and rules out the rest;
        the screen passes on the cells evaluated and rules out the others it
        screened. Each level runs in the next round exactly when that round
        restarts from the full box, or the level ran and ruled out more than it
        passed on (after the first round: ran)."""
        hat, bar, _ = synth_generate(100, 250, PLANTED, 0.02, seed=1)
        calls, real_centers, real_blocks = screen_calls, search._cell_centers, search._block_bounds

        def centers(box, n_d, jitter, clip_box):
            calls.append(("round", jitter is not None, None))
            return real_centers(box, n_d, jitter, clip_box)

        def blocks(*args):
            calls.append(("block", len(args[2]), None))
            return real_blocks(*args)

        monkeypatch.setattr(search, "_cell_centers", centers)
        monkeypatch.setattr(search, "_block_bounds", blocks)
        res = ags_run(hat, bar, AgsConfig(n_d=4, t_max=120.0, box=AngleBox.symmetric_deg(2.0),
                                          max_rounds=40))
        rounds = []
        for kind, n, angles in calls:
            if kind == "round":
                rounds.append({"restart": n, "block": False, "low": set(), "full": set()})
            elif kind == "block":
                rounds[-1]["block"] = True
            else:
                rounds[-1]["low" if kind < len(hat) else "full"].update(map(tuple, n))
        assert len(rounds) == res.rounds == 40
        for r, (now, then) in enumerate(zip(rounds, rounds[1:])):
            passed = now["low"] | now["full"]
            block = now["block"] and (r == 0 or 64 - len(passed) > len(passed))
            screen = bool(now["low"]) and (r == 0 or len(now["low"] - now["full"])
                                           > len(now["full"]))
            assert then["block"] == (then["restart"] or block)
            assert bool(then["low"]) == (then["restart"] or screen)
        paused = [r for r, x in enumerate(rounds) if not x["block"]]
        assert paused and any(x["restart"] and x["block"] for x in rounds[paused[0]:])


class TestBlockBounds:
    """One KD-tree per block of cells bounds every cell of the block from below."""

    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (5e5, 9.9e6, 0.0)])
    @pytest.mark.parametrize("n_d", [1, 3, 10])
    def test_below_every_cells_sampled_objective(self, noise, offset, n_d):
        """n_d = 1 and 3 give one-cell blocks (m = 0), 3 partial edge blocks."""
        hat, bar = screen_scene(noise, offset)
        sample = decimate(hat, search._SCREEN_STRIDE)
        p, half = PLANTED.as_array(), np.radians([0.4, 0.7, 0.3])
        for box in (AngleBox.symmetric_deg(2.0),
                    AngleBox.from_arrays(p + np.radians([0.2, -1.5, 0.5]) - half,
                                         p + np.radians([0.2, -1.5, 0.5]) + half),
                    AngleBox.from_arrays(p - 5e-7, p + 5e-7)):
            centers = search._cell_centers(box, n_d, None, box)
            bounds = search._block_bounds(sample, bar, centers, n_d)
            exact = evaluate_many(sample, bar, centers)[0]
            assert np.all(bounds <= exact)
            assert bounds.max() > 0.1 * exact.max() or exact.max() < 1e-9  # not vacuous


class TestAgsConfig:
    def test_rejects_bad_values(self):
        box = AngleBox.symmetric_deg(2.0)
        with pytest.raises(ValueError):
            AgsConfig(n_d=0, t_max=1.0, box=box)
        with pytest.raises(ValueError):
            AgsConfig(n_d=2, t_max=0.0, box=box)
        with pytest.raises(ValueError):
            AgsConfig(n_d=2, t_max=1.0, box=box, shrink=1.5)
        for rounds in (0, -3):
            with pytest.raises(ValueError, match="max_rounds must be >= 1"):
                AgsConfig(n_d=2, t_max=1.0, box=box, max_rounds=rounds)


class TestAgs:
    def test_nd_one_single_round_evaluates_center(self, small_scene):
        hat, bar, _ = small_scene
        box = AngleBox.symmetric_deg(2.0)
        res = ags_run(hat, bar, AgsConfig(n_d=1, t_max=30.0, box=box, max_rounds=1))
        assert res.n_evals == 1
        center = box.midpoint()
        assert res.best.angles.as_array() == pytest.approx(center.as_array())
        assert res.best.objective == pytest.approx(evaluate_ub(hat, bar, center).objective)

    def test_recovers_planted_angles(self, small_scene):
        hat, bar, _ = small_scene
        box = AngleBox.symmetric_deg(2.0)
        ev = ags_run(hat, bar, AgsConfig(n_d=10, t_max=120.0, box=box, max_rounds=5)).best
        err = np.degrees(np.abs(ev.angles.as_array() - PLANTED.as_array()))
        assert np.all(err <= 0.05)

    def test_result_inside_original_box(self, small_scene):
        hat, bar, _ = small_scene
        box = AngleBox.symmetric_deg(0.5)
        res = ags_run(hat, bar, AgsConfig(n_d=4, t_max=10.0, box=box, max_rounds=6, seed=3))
        assert box.contains(res.best.angles, tol=1e-12)

    def test_incumbent_non_increasing_across_rounds(self, small_scene):
        hat, bar, _ = small_scene
        box = AngleBox.symmetric_deg(2.0)
        prev = np.inf
        for rounds in (1, 2, 3, 4):
            ev = ags_run(hat, bar, AgsConfig(n_d=4, t_max=60.0, box=box, max_rounds=rounds)).best
            assert ev.objective <= prev + 1e-15
            prev = ev.objective

    def test_deterministic(self, small_scene):
        hat, bar, _ = small_scene
        cfg = AgsConfig(n_d=5, t_max=60.0, box=AngleBox.symmetric_deg(2.0), max_rounds=3, seed=9)
        a = ags_run(hat, bar, cfg)
        b = ags_run(hat, bar, cfg)
        assert a.best.objective == b.best.objective
        assert a.best.angles == b.best.angles
        assert a.n_evals == b.n_evals

    def test_objective_is_valid_upper_bound(self, small_scene):
        hat, bar, _ = small_scene
        box = AngleBox.symmetric_deg(2.0)
        ev = ags_run(hat, bar, AgsConfig(n_d=3, t_max=10.0, box=box, max_rounds=2)).best
        # feasibility: re-evaluating at the returned angles reproduces the value
        assert evaluate_ub(hat, bar, ev.angles).objective == pytest.approx(ev.objective, rel=1e-12)

    def test_time_budget_checked_after_every_batch(self, small_scene, monkeypatch):
        """Batches of 4 evaluations that take 0.1 s each: a round of 4^3 cells
        would take 1.6 s; the run stops within one batch after t_max."""
        hat, bar, _ = small_scene
        real, pause = search.evaluate_many, 0.1

        def slow(*args):
            time.sleep(pause)
            return real(*args)

        monkeypatch.setattr(search, "evaluate_many", slow)
        monkeypatch.setattr(search, "BATCH_BYTES", 4 * 24 * (len(hat) + len(bar)))
        t_max = 0.3
        t0 = time.monotonic()
        res = ags_run(hat, bar, AgsConfig(n_d=4, t_max=t_max, box=AngleBox.symmetric_deg(2.0)))
        elapsed = time.monotonic() - t0
        assert elapsed < t_max + pause + 0.15
        assert res.rounds == 1 and 0 < res.n_evals < 64
        assert res.n_evals % 4 == 0

    def test_memory_bounded_by_one_batch(self):
        """A round keeps the incumbent, not every evaluation: 1000 cells on a
        500x1250 scene peak well below their 1000 assignments (4 MB)."""
        hat, bar, _ = synth_generate(500, 1250, PLANTED, 0.02, seed=8)
        cfg = AgsConfig(n_d=10, t_max=120.0, box=AngleBox.symmetric_deg(2.0), max_rounds=1)
        tracemalloc.start()
        try:
            res = ags_run(hat, bar, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_evals + res.n_screened == 1000
        assert peak < 2 * 2**20

    def test_memory_bounded_on_candidate_path(self, trees_built, screen_calls):
        """The late rounds share one tree per batch; the count-only query and the
        chunked gather keep the same cap."""
        hat, bar, _ = synth_generate(500, 1250, PLANTED, 0.02, seed=8)
        cfg = AgsConfig(n_d=5, t_max=120.0, box=AngleBox.symmetric_deg(2.0), max_rounds=4)
        tracemalloc.start()
        try:
            res = ags_run(hat, bar, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_evals + res.n_screened == 5**3 * 4
        screen_evals = sum(len(a) for n, a, _ in screen_calls if n < len(hat))
        # a tree per evaluation of either pass without shared ones
        assert len(trees_built) < screen_evals + res.n_evals
        assert peak < 2 * 2**20

    def test_restart_after_collapse_keeps_searching(self, small_scene):
        hat, bar, _ = small_scene
        # tiny box collapses quickly; the run must restart rather than error
        box = AngleBox.symmetric_deg(1e-4)
        res = ags_run(hat, bar, AgsConfig(n_d=2, t_max=5.0, box=box, max_rounds=40, seed=0))
        assert res.rounds == 40
        assert box.contains(res.best.angles, tol=1e-12)
