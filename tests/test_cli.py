"""Command-line interface: subcommands, report grammar, exit codes."""

import shlex
import sys
import time

import pytest

from boresight import cli
from boresight.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from boresight.cloud import load_fused
from boresight.miqcqp import parse_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out: str) -> dict[str, str]:
    kv = {}
    for line in out.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, val = line.partition("=")
        assert _ == "=", f"non key=value report line: {line!r}"
        kv[key] = val
    return kv


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("scene") / "scene"
    code = main([
        "synth", "--n", "20,40", "--angles", "1,-0.5,0.25",
        "--noise", "0", "--seed", "7", "--out", str(base),
    ])
    assert code == EXIT_OK
    return str(base) + "_hat.txt", str(base) + "_bar.txt", str(base) + "_truth.txt"


class TestSynth:
    def test_writes_three_files(self, tmp_path, capsys):
        base = tmp_path / "s"
        code, out, _ = run(capsys, "synth", "--n", "10,20", "--angles", "1,-0.5,0.25",
                           "--seed", "3", "--out", str(base))
        assert code == EXIT_OK
        kv = parse_report(out)
        assert kv["command"] == "synth"
        for suffix in ("_hat.txt", "_bar.txt", "_truth.txt"):
            assert (tmp_path / ("s" + suffix)).exists()
        assert len(load_fused(str(base) + "_hat.txt")) == 10

    def test_same_seed_identical_files(self, tmp_path, capsys):
        args = ["synth", "--n", "10,20", "--angles", "0.5,0.5,0.5", "--seed", "9"]
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        for suffix in ("_hat.txt", "_bar.txt", "_truth.txt"):
            assert (tmp_path / ("a" + suffix)).read_text() == (tmp_path / ("b" + suffix)).read_text()

    def test_negative_noise_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--n", "5,10", "--angles", "0,0,0",
                           "--noise", "-1", "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_bad_counts_are_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--n", "20,10", "--angles", "0,0,0",
                         "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (["--object-fraction", "1.5"], "object_fraction must be in [0, 1]"),
        (["--object-fraction", "-0.1"], "object_fraction must be in [0, 1]"),
        (["--object-fraction", "nan"], "object_fraction must be in [0, 1]"),
        (["--noise", "nan"], "noise_sigma must be >= 0"),
        (["--n", "0,10"], "cloud sizes must be >= 1"),
        (["--n", "10.7,20"], "--n: invalid literal for int() with base 10: '10.7'"),
    ])
    def test_invalid_arguments_are_usage_errors(self, tmp_path, capsys, argv, message):
        code, _, err = run(capsys, "synth", "--n", "5,10", "--angles", "0,0,0", *argv,
                           "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert err == f"usage error: {message}\n"
        assert not list(tmp_path.iterdir())


class TestCrop:
    def test_crop_object_region(self, synth_files, tmp_path, capsys):
        hat, _, _ = synth_files
        out = tmp_path / "cropped.txt"
        code, text, _ = run(capsys, "crop", "--in", hat,
                            "--box=-2.2,-1.2,0.4,2.2,1.2,2.1",
                            "--angles", "1,-0.5,0.25", "--out", str(out))
        assert code == EXIT_OK
        kv = parse_report(text)
        n = int(kv["n_points"])
        assert 0 < n <= 20
        assert len(load_fused(str(out))) == n

    def test_disjoint_box_is_data_error(self, synth_files, tmp_path, capsys):
        hat, _, _ = synth_files
        code, _, err = run(capsys, "crop", "--in", hat,
                           "--box", "900,900,900,901,901,901", "--out", str(tmp_path / "c.txt"))
        assert code == EXIT_DATA
        assert "data error" in err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "crop", "--in", "/nope.txt",
                         "--box", "0,0,0,1,1,1", "--out", str(tmp_path / "c.txt"))
        assert code == EXIT_DATA

    @pytest.mark.parametrize("argv, message", [
        (["--decimate", "0"], "--decimate must be >= 1"),
        (["--decimate", "-2"], "--decimate must be >= 1"),
        (["--angles", "1,2"], "--angles: expected 3 comma-separated values, got 2"),
        (["--box", "1,1,1,0,0,0"], "CropBox min must be <= max componentwise"),
        (["--box", "0,0,0,1,nan,1"], "CropBox min must be <= max componentwise"),
    ])
    def test_invalid_arguments_are_usage_errors(self, tmp_path, capsys, argv, message):
        """Checked before the input is read: a missing file is not reached."""
        code, _, err = run(capsys, "crop", "--in", "/nope.txt", "--box", "0,0,0,1,1,1",
                           *argv, "--out", str(tmp_path / "c.txt"))
        assert code == EXIT_USAGE
        assert err == f"usage error: {message}\n"


class TestApply:
    def test_identity_pose_zero_angles_reproduces_l(self, tmp_path, capsys):
        from boresight.cloud import FUSED_HEADER

        src = tmp_path / "c.txt"
        src.write_text(FUSED_HEADER + "\n1,2,3,0,0,0,0,0,0\n-4,5,6,0,0,0,0,0,0\n")
        out = tmp_path / "p.csv"
        code, _, _ = run(capsys, "apply", "--in", str(src), "--angles", "0,0,0",
                         "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,z"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 2.0, 3.0]
        assert [float(v) for v in lines[2].split(",")] == [-4.0, 5.0, 6.0]


class TestAgs:
    def test_report_and_recovery(self, synth_files, tmp_path, capsys):
        hat, bar, _ = synth_files
        report_path = tmp_path / "ags.txt"
        code, out, _ = run(capsys, "ags", "--hat", hat, "--bar", bar,
                           "--nd", "8", "--tmax", "60", "--rounds", "4",
                           "--out", str(report_path))
        assert code == EXIT_OK
        kv = parse_report(out)
        assert kv["command"] == "ags"
        assert float(kv["alpha_deg"]) == pytest.approx(1.0, abs=0.2)
        assert float(kv["beta_deg"]) == pytest.approx(-0.5, abs=0.2)
        assert float(kv["gamma_deg"]) == pytest.approx(0.25, abs=0.2)
        # angle precision: at least 3 decimal places in the report
        assert len(kv["alpha_deg"].split(".")[1]) >= 3
        assert report_path.read_text() == out

    def test_deterministic_reports(self, synth_files, tmp_path, capsys):
        hat, bar, _ = synth_files
        args = ["ags", "--hat", hat, "--bar", bar, "--nd", "4", "--tmax", "60",
                "--rounds", "2", "--seed", "5"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        kv1, kv2 = parse_report(out1), parse_report(out2)
        kv1.pop("wall_time_s"), kv2.pop("wall_time_s")
        assert kv1 == kv2

    def test_report_counts_screened_cells(self, tmp_path, capsys):
        """On a 64-point hat each round screens its cells on a sample first:
        evaluations counts the full ones, screened the cells ruled out."""
        base = str(tmp_path / "scene")
        assert main(["synth", "--n", "64,130", "--angles", "1,-0.5,0.25", "--noise", "0.02",
                     "--seed", "7", "--out", base]) == EXIT_OK
        capsys.readouterr()
        code, out, _ = run(capsys, "ags", "--hat", base + "_hat.txt", "--bar", base + "_bar.txt",
                           "--nd", "5", "--tmax", "60", "--rounds", "2")
        assert code == EXIT_OK
        kv = parse_report(out)
        assert int(kv["screened"]) > 0
        assert int(kv["evaluations"]) + int(kv["screened"]) == 2 * 5**3

    @pytest.mark.parametrize("argv, message", [
        (["--nd", "0"], "n_d must be >= 1"),
        (["--tmax", "-1"], "t_max must be > 0"),
        (["--shrink", "1.5"], "shrink must be in (0, 1)"),
        (["--rounds", "0"], "max_rounds must be >= 1"),
        (["--rounds", "-3"], "max_rounds must be >= 1"),
        (["--tmax", "nan"], "t_max must be > 0"),
    ])
    def test_invalid_search_arguments_are_usage_errors(self, synth_files, capsys, argv, message):
        hat, bar, _ = synth_files
        code, _, err = run(capsys, "ags", "--hat", hat, "--bar", bar, *argv)
        assert code == EXIT_USAGE
        assert err == f"usage error: {message}\n"


class TestNsbb:
    def test_pipeline_f_upper_not_above_ags(self, synth_files, capsys):
        hat, bar, _ = synth_files
        _, ags_out, _ = run(capsys, "ags", "--hat", hat, "--bar", bar,
                            "--nd", "6", "--tmax", "60", "--rounds", "3")
        ags_obj = float(parse_report(ags_out)["objective"])
        code, out, _ = run(capsys, "nsbb", "--hat", hat, "--bar", bar,
                           "--ags-nd", "6", "--ags-rounds", "3")
        assert code == EXIT_OK
        kv = parse_report(out)
        assert float(kv["f_upper"]) <= ags_obj + 1e-12
        assert float(kv["f_lower"]) <= float(kv["f_upper"])
        assert kv["converged_by"] in ("gap_abs", "gap_rel", "exhausted")

    def test_huge_eps_abs_returns_root_bounds(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, out, _ = run(capsys, "nsbb", "--hat", hat, "--bar", bar,
                           "--eps-abs", "1e9", "--no-ags-init")
        assert code == EXIT_OK
        kv = parse_report(out)
        assert int(kv["nodes_explored"]) == 0
        assert kv["converged_by"] == "gap_abs"

    def test_reports_contraction_counters(self, synth_files, capsys, monkeypatch):
        """The report gives the solve's cut passes, emptied boxes and the share
        of child-box volume that cuts removed."""
        hat, bar, _ = synth_files
        real_nsbb, reports = cli.nsbb_solve, []

        def recording_nsbb(*a, **kw):
            reports.append(real_nsbb(*a, **kw))
            return reports[-1]

        monkeypatch.setattr(cli, "nsbb_solve", recording_nsbb)
        code, out, _ = run(capsys, "nsbb", "--hat", hat, "--bar", bar, "--max-nodes", "1",
                           "--no-ags-init", "--eps-abs", "1e-9")
        assert code == EXIT_OK
        kv, rep = parse_report(out), reports[0]
        assert rep.cut_passes > 0
        assert int(kv["cut_passes"]) == rep.cut_passes
        assert int(kv["boxes_emptied"]) == rep.boxes_emptied
        assert float(kv["cut_volume_frac"]) == rep.cut_volume_frac
        assert 0.0 < rep.cut_volume_frac <= 1.0

    def test_reports_finalized_boxes(self, synth_files, capsys):
        """A root box narrower than 1e-7 rad on every axis cannot be split: it
        is finalized with its bound, and the gap stays open."""
        hat, bar, _ = synth_files
        code, out, _ = run(capsys, "nsbb", "--hat", hat, "--bar", bar, "--bounds", "2e-6",
                           "--no-ags-init", "--eps-rel", "1e-12", "--eps-abs", "1e-15")
        assert code == EXIT_OK
        kv = parse_report(out)
        assert kv["nodes_finalized"] == "1" and kv["nodes_explored"] == "0"
        assert kv["converged_by"] == "exhausted"
        assert float(kv["f_lower"]) < float(kv["f_upper"])

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "nsbb", "--hat", "/nope.txt", "--bar", "/nope.txt")
        assert code == EXIT_DATA

    def test_solver_cmd_turns_on_external_bound(self, synth_files, tmp_path, capsys):
        hat, bar, _ = synth_files
        solver = tmp_path / "fake_solver.py"
        calls = tmp_path / "calls.txt"
        solver.write_text("import sys\n"
                          f"open({str(calls)!r}, 'a').write(sys.argv[1] + '\\n')\n"
                          "print('LOWER 0')\n")
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(solver))}"
        args = ["nsbb", "--hat", hat, "--bar", bar, "--max-nodes", "1", "--no-ags-init"]
        code, out, _ = run(capsys, *args, "--solver-cmd", cmd)
        assert code == EXIT_OK
        assert parse_report(out)["lb_mode"] == "external"
        models = calls.read_text().splitlines()
        assert models and all(m.endswith(".miqcqp") for m in models)
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK
        assert parse_report(out)["lb_mode"] == "builtin"

    @pytest.mark.parametrize("limit, spent", [(5.0, 0.4), (0.2, 0.4)])
    def test_time_limit_is_one_budget(self, synth_files, capsys, monkeypatch, limit, spent):
        """The warm start spends from --time-limit and nsBB gets what is left,
        never less than 0; the report gives both times."""
        real_ags, real_nsbb = cli.ags_run, cli.nsbb_solve
        limits = []

        def slow_ags(*a, **kw):
            result = real_ags(*a, **kw)
            time.sleep(spent)
            return result

        def recording_nsbb(*a, **kw):
            limits.append(kw["time_limit"])
            return real_nsbb(*a, **kw)

        monkeypatch.setattr(cli, "ags_run", slow_ags)
        monkeypatch.setattr(cli, "nsbb_solve", recording_nsbb)
        hat, bar, _ = synth_files
        code, out, _ = run(capsys, "nsbb", "--hat", hat, "--bar", bar, "--ags-nd", "4",
                           "--ags-rounds", "1", "--max-nodes", "2", "--time-limit", str(limit))
        assert code == EXIT_OK
        kv = parse_report(out)
        t_ags = float(kv["ags_time_s"])
        assert t_ags >= spent
        assert limits == [pytest.approx(max(0.0, limit - t_ags), abs=1e-6)]
        assert float(kv["wall_time_s"]) == pytest.approx(t_ags + float(kv["nsbb_time_s"]))

    def test_nonpositive_time_limit_is_usage_error(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, _, err = run(capsys, "nsbb", "--hat", hat, "--bar", bar, "--time-limit", "0")
        assert code == EXIT_USAGE
        assert "--time-limit" in err

    @pytest.mark.parametrize("argv, message", [
        (["--ags-nd", "0"], "n_d must be >= 1"),
        (["--eps-rel", "0"], "--eps-rel and --eps-abs must be positive"),
        (["--eps-abs", "-1"], "--eps-rel and --eps-abs must be positive"),
        (["--ags-rounds", "0"], "max_rounds must be >= 1"),
        (["--max-nodes", "-1"], "--max-nodes must be >= 0"),
        (["--eps-rel", "nan"], "--eps-rel and --eps-abs must be positive"),
        (["--node-time", "-5"], "--node-time must be positive seconds"),
        (["--node-time", "nan"], "--node-time must be positive seconds"),
        (["--bounds", "200"], "--bounds must be in (0, 90) degrees"),
        (["--bounds", "90"], "--bounds must be in (0, 90) degrees"),
    ])
    def test_invalid_solver_arguments_are_usage_errors(self, synth_files, capsys, argv, message):
        hat, bar, _ = synth_files
        code, _, err = run(capsys, "nsbb", "--hat", hat, "--bar", bar, *argv)
        assert code == EXIT_USAGE
        assert err == f"usage error: {message}\n"

    def test_zero_max_nodes_bounds_the_root_only(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, out, _ = run(capsys, "nsbb", "--hat", hat, "--bar", bar, "--max-nodes", "0",
                           "--no-ags-init", "--eps-abs", "1e-12", "--eps-rel", "1e-12")
        kv = parse_report(out)
        assert code == EXIT_OK
        assert kv["nodes_explored"] == "0" and int(kv["pairs_root"]) > 0

    def test_lb_mode_option_is_gone(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, _, err = run(capsys, "nsbb", "--hat", hat, "--bar", bar, "--lb-mode", "external")
        assert code == EXIT_USAGE
        assert "usage error" in err


class TestExportModel:
    def test_export_parses_back(self, synth_files, tmp_path, capsys):
        hat, bar, _ = synth_files
        out = tmp_path / "model.miqcqp"
        code, text, _ = run(capsys, "export-model", "--hat", hat, "--bar", bar,
                            "--out", str(out))
        assert code == EXIT_OK
        kv = parse_report(text)
        model = parse_model(str(out))
        assert len(model.variables) == int(kv["n_vars"])
        assert len(model.binaries()) == int(kv["n_binaries"])
        assert len(model.constraints) == int(kv["n_constraints"])

    @pytest.mark.parametrize("argv, message", [
        (["--f-upper", "-1"], "--f-upper must be >= 0"),
        (["--f-upper", "nan"], "--f-upper must be >= 0"),
        (["--bounds", "200"], "--bounds must be in (0, 90) degrees"),
    ])
    def test_invalid_arguments_are_usage_errors(self, tmp_path, capsys, argv, message):
        """Checked before the inputs are read: a missing file is not reached."""
        code, _, err = run(capsys, "export-model", "--hat", "/nope.txt", "--bar", "/nope.txt",
                           *argv, "--out", str(tmp_path / "model.miqcqp"))
        assert code == EXIT_USAGE
        assert err == f"usage error: {message}\n"


class TestReduceStats:
    def test_counts_are_consistent(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, out, _ = run(capsys, "reduce-stats", "--hat", hat, "--bar", bar,
                           "--f-upper", "1e-4")
        assert code == EXIT_OK
        kv = parse_report(out)
        before = int(kv["pairs_before"])
        after = int(kv["pairs_after"])
        removed = int(kv["removed_objective_rule"]) + int(kv["removed_closest_rule"])
        assert before == 20 * 40
        assert before - removed == after
        assert after < before  # a tight valid bound must eliminate pairs

    @pytest.mark.parametrize("argv, message", [
        (["--f-upper", "-1"], "--f-upper must be >= 0"),
        (["--f-upper", "nan"], "--f-upper must be >= 0"),
        (["--bounds", "0"], "--bounds must be in (0, 90) degrees"),
    ])
    def test_invalid_arguments_are_usage_errors(self, capsys, argv, message):
        """Checked before the inputs are read: a missing file is not reached."""
        code, _, err = run(capsys, "reduce-stats", "--hat", "/nope.txt", "--bar", "/nope.txt",
                           *argv)
        assert code == EXIT_USAGE
        assert err == f"usage error: {message}\n"

    def test_default_f_upper_is_inf(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, out, _ = run(capsys, "reduce-stats", "--hat", hat, "--bar", bar)
        assert code == EXIT_OK
        assert parse_report(out)["f_upper"] == "inf"


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_bad_angles_format(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--n", "5,10", "--angles", "1,2",
                         "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE

    def test_negative_bounds(self, synth_files, capsys):
        hat, bar, _ = synth_files
        code, _, _ = run(capsys, "ags", "--hat", hat, "--bar", bar, "--bounds", "-1")
        assert code == EXIT_USAGE
