import contextlib
import importlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kissbound import SearchConfig, fcc_fragment, parse_certificate, sweep_rho
from kissbound import certifier as certifier_module
from kissbound.certifier import DEFAULT_FP_SLACK
from kissbound.cli import build_parser, main
from kissbound.packings import DEFAULT_TOLERANCE

from conftest import data_path

density_module = importlib.import_module("kissbound.density")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the metadata record's keys, in order, and each command's own ones after
REPORT_KEYS = ["command_line", "configuration", "version", "wall_time_s", "outputs"]
OPTIMIZE_KEYS = ["failed_starts", "iterations", "evaluations", "capped", "processes"]


def stderr_metadata(err):
    return json.loads(err.strip().split("\n")[-1])


def sidecar(path):
    return json.loads(Path(f"{path}.meta.json").read_text(encoding="utf-8"))


class TestHighdim:
    def test_a4_reported(self, capsys):
        code, out, err = run(capsys, "highdim", "--d", "4")
        assert code == 0
        assert "34.681" in out
        assert "34.680746" in out

    def test_a3_closed_form(self, capsys):
        code, out, _ = run(capsys, "highdim", "--d", "3")
        assert code == 0
        assert "14.928203230" in out

    def test_bad_dimension_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["highdim", "--d", "2"])
        assert info.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "highdim", "--d", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,rho,f_d,bound"
        fields = lines[1].split(",")
        assert int(fields[0]) == 5
        assert float(fields[3]) == pytest.approx(77.7562, abs=1e-3)

    def test_explicit_rho(self, capsys):
        code, out, _ = run(capsys, "highdim", "--d", "4", "--rho", "2.0", "--format", "csv")
        assert code == 0
        bound = float(out.strip().split("\n")[1].split(",")[3])
        assert bound > 34.681

    def test_label_names_the_ratio_used(self, capsys):
        # a 7-digit ratio is printed as given, not rounded to 6 digits
        code, out, _ = run(capsys, "highdim", "--d", "3", "--rho", "1.0000001")
        assert code == 0
        assert out.startswith("2/f_3(1.0000001) = ")

    @pytest.mark.parametrize("d, rho", [("64", "1.0000000000000002"), ("3", "2.9999999999999996")])
    def test_vanishing_f_d_exit_four(self, capsys, d, rho):
        code, out, err = run(capsys, "highdim", "--d", d, "--rho", rho)
        assert code == 4
        assert out == ""
        assert "rounds to 0" in err
        assert "Traceback" not in err

    def test_ignores_invalid_thread_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("KISSBOUND_THREADS", "abc")
        code, out, _ = run(capsys, "highdim", "--d", "4")
        assert code == 0
        assert "34.681" in out

    def test_metadata_on_stderr(self, capsys):
        _, _, err = run(capsys, "highdim", "--d", "3")
        meta = json.loads(err.strip().split("\n")[-1])
        assert meta["version"]
        assert meta["configuration"]["d"] == 3
        assert "wall_time_s" in meta

    def test_metadata_keys_in_order(self, capsys):
        _, _, err = run(capsys, "highdim", "--d", "4", "--rho", "1.755")
        meta = stderr_metadata(err)
        assert list(meta) == REPORT_KEYS
        assert meta["configuration"] == {"command": "highdim", "d": 4, "format": "text", "rho": 1.755}
        assert list(meta["outputs"]) == ["stdout"]

    def test_command_line_is_the_parsed_argv(self, capsys, monkeypatch):
        # an in-process call records the arguments it parsed, after the
        # host's program name, not the host's own arguments
        monkeypatch.setattr("sys.argv", ["host", "--host-flag", "extra-arg"])
        code, _, err = run(capsys, "highdim", "--d", "3")
        assert code == 0
        assert stderr_metadata(err)["command_line"] == ["host", "highdim", "--d", "3"]

    def test_command_line_without_argv_is_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["kissbound", "highdim", "--d", "3"])
        assert main() == 0
        meta = stderr_metadata(capsys.readouterr().err)
        assert meta["command_line"] == ["kissbound", "highdim", "--d", "3"]
        assert meta["configuration"]["d"] == 3


class TestOptimize:
    def test_small_sweep_argmin(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "--rho-lo", "1.74",
            "--rho-hi", "1.77",
            "--step", "0.005",
            "--grid-step", "0.1",
            "--workers", "2",
        )
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "rho,max_density,x,y,z,objective"
        assert len(lines) == 8
        summary = [l for l in out.strip().split("\n") if l.startswith("#")][0]
        assert "rho=1.755" in summary
        assert "13.9087" in summary

    def test_degenerate_interval_single_row(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "--rho-lo", "1.755",
            "--rho-hi", "1.755",
            "--step", "0.01",
            "--grid-step", "0.15",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2

    def test_prune_marks_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize",
            "--rho-lo", "1.50",
            "--rho-hi", "1.60",
            "--step", "0.05",
            "--grid-step", "0.1",
            "--prune", "14",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rho,max_density,x,y,z,objective,pruned"
        flags = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert flags == ["true", "true", "false"]

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_invalid_thread_variable_usage_error(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("KISSBOUND_THREADS", threads)
        code, _, err = run(
            capsys,
            "optimize",
            "--rho-lo", "1.755",
            "--rho-hi", "1.755",
            "--step", "0.01",
            "--grid-step", "0.15",
        )
        assert code == 2
        assert "KISSBOUND_THREADS" in err

    def test_failed_starts_in_metadata(self, capsys):
        code, _, err = run(
            capsys,
            "optimize",
            "--rho-lo", "1.755",
            "--rho-hi", "1.765",
            "--step", "0.01",
            "--grid-step", "0.15",
            "--workers", "1",
        )
        assert code == 0
        meta = json.loads(err.strip().split("\n")[-1])
        assert meta["failed_starts"] == 0

    def test_metadata_keys_in_order(self, capsys, monkeypatch):
        monkeypatch.setenv("KISSBOUND_THREADS", "1")
        argv = ["optimize", "--rho-lo", "1.755", "--rho-hi", "1.755", "--step", "0.01"]
        code, out, err = run(capsys, *argv, "--grid-step", "0.15")
        assert code == 0
        meta = stderr_metadata(err)
        assert list(meta) == REPORT_KEYS + OPTIMIZE_KEYS
        # the worker count used, not the option's None
        assert meta["configuration"] == {
            "command": "optimize", "format": "text", "grid_step": 0.15, "prune": None,
            "rho_hi": 1.755, "rho_lo": 1.755, "step": 0.01, "tol": SearchConfig().tol,
            "workers": 1,
        }
        assert list(meta["outputs"]) == ["stdout"]

    def test_search_counts_in_metadata(self, capsys):
        argv = ["optimize", "--rho-lo", "1.5", "--rho-hi", "1.65", "--step", "0.05"]
        argv += ["--grid-step", "0.15", "--prune", "14", "--workers", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        meta = json.loads(err.strip().split("\n")[-1])
        rows = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
        results = sweep_rho(1.5, 1.65, 0.05, SearchConfig(grid_step=0.15), prune_threshold=14.0)
        assert [row[-1] for row in rows] == ["true", "true", "false", "false"]
        assert meta["iterations"] == [r.iterations for r in results]
        assert meta["evaluations"] == [r.evaluations for r in results]
        assert meta["capped"] == [r.capped for r in results]
        assert meta["iterations"][:2] == [0, 0] and min(meta["iterations"][2:]) > 0
        assert meta["capped"][:2] == [0, 0]
        assert min(meta["evaluations"][2:]) > 0

    def test_processes_in_metadata(self, capsys, monkeypatch):
        # 2 ratios of 84 starts are too few for a second process, unless
        # every start is worth one
        argv = ["optimize", "--rho-lo", "1.755", "--rho-hi", "1.765", "--step", "0.01"]
        argv += ["--grid-step", "0.15", "--workers", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert stderr_metadata(err)["processes"] == 1
        monkeypatch.setattr(density_module, "MIN_PROCESS_LANES", 1)
        code, forked, err = run(capsys, *argv)
        assert code == 0
        assert stderr_metadata(err)["processes"] == 2
        assert forked == out

    @pytest.mark.parametrize(
        "flag, code", [("--step", 2), ("--grid-step", 4), ("--tol", 4)]
    )
    def test_nan_search_input_rejected(self, capsys, flag, code):
        args = {"--step": "0.01", "--grid-step": "0.15", "--tol": "1e-10"}
        args[flag] = "nan"
        exit_code, out, err = run(
            capsys,
            "optimize",
            "--rho-lo", "1.755",
            "--rho-hi", "1.755",
            *(item for pair in args.items() for item in pair),
            "--workers", "1",
        )
        assert exit_code == code
        assert out == ""
        assert "Traceback" not in err
        assert "nan" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_prune_exit_four(self, capsys, value):
        code, out, err = run(
            capsys,
            "optimize",
            "--rho-lo", "1.755",
            "--rho-hi", "1.755",
            "--step", "0.01",
            "--grid-step", "0.15",
            "--prune", value,
            "--workers", "1",
        )
        assert code == 4
        assert out == ""
        assert "prune" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("step, code", [("inf", 2), ("1e-300", 4)])
    def test_unusable_step_rejected(self, capsys, step, code):
        exit_code, out, err = run(
            capsys,
            "optimize",
            "--rho-lo", "1.7",
            "--rho-hi", "1.8",
            "--step", step,
            "--workers", "1",
        )
        assert exit_code == code
        assert out == ""
        assert "step" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid_step", ["5e-324", "1e-6"])
    def test_oversized_start_grid_exit_four(self, capsys, grid_step):
        code, out, err = run(
            capsys,
            "optimize",
            "--rho-lo", "1.75",
            "--rho-hi", "1.75",
            "--step", "0.01",
            "--grid-step", grid_step,
            "--workers", "1",
        )
        assert code == 4
        assert out == ""
        assert "start points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rho", ["1.0000000000000002", "1.0000000000000004", "2.9999999999999996"]
    )
    def test_degenerate_ratio_exit_four(self, capsys, rho):
        code, out, err = run(
            capsys,
            "optimize",
            "--rho-lo", rho,
            "--rho-hi", rho,
            "--step", "0.01",
            "--workers", "1",
        )
        assert code == 4
        assert out == ""
        assert "too close" in err
        assert "Traceback" not in err

    def test_invalid_interval_usage_error(self, capsys):
        code, _, err = run(capsys, "optimize", "--rho-lo", "1.8", "--rho-hi", "1.7", "--step", "0.01")
        assert code == 2
        assert "usage error" in err


class TestCertify:
    def test_pass_exit_zero_and_artifact(self, capsys, tmp_path):
        out_path = str(tmp_path / "cert.txt")
        code, out, _ = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--delta", "0.004",
            "--target", "14.5",
            "--workers", "2",
            "--output", out_path,
        )
        assert code == 0
        assert out.startswith("CERTIFIED k3 < ")
        assert "boxes=1499784" in out
        cert = parse_certificate(Path(out_path).read_text(encoding="utf-8"))
        assert cert.passed
        meta = json.loads(Path(out_path + ".meta.json").read_text(encoding="utf-8"))
        assert meta["outputs"][out_path]
        assert meta["configuration"]["delta"] == 0.004

    def test_sidecar_keys_in_order(self, capsys, tmp_path):
        out_path = str(tmp_path / "cert.txt")
        code, _, err = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--delta", "0.01",
            "--target", "14.9",
            "--workers", "2",
            "--output", out_path,
        )
        assert code == 0
        assert err == ""
        meta = sidecar(out_path)
        assert list(meta) == REPORT_KEYS
        assert meta["configuration"] == {
            "checkpoint": None, "command": "certify", "delta": 0.01,
            "format": "text", "fp_slack": DEFAULT_FP_SLACK, "output": out_path,
            "progress": False, "rho": 1.755, "target": 14.9, "workers": 2,
        }
        assert list(meta["outputs"]) == [out_path]
        assert Path(out_path + ".meta.json").read_text(encoding="utf-8").endswith("}\n")

    def test_second_run_replaces_the_whole_certificate(self, capsys, tmp_path):
        # the new certificate is renamed over the old one, not written into it
        out_path = tmp_path / "cert.txt"
        texts, inodes = [], []
        for target in ("14.9", "13.9"):
            code, _, _ = run(
                capsys,
                "certify",
                "--rho", "1.755",
                "--delta", "0.01",
                "--target", target,
                "--workers", "1",
                "--output", str(out_path),
            )
            texts.append(out_path.read_text(encoding="utf-8"))
            inodes.append(out_path.stat().st_ino)
        assert code == 1
        assert inodes[0] != inodes[1]
        assert parse_certificate(texts[0]).passed and not parse_certificate(texts[1]).passed
        assert texts[1].startswith("rho: ") and texts[1].endswith("passed: false\n")
        assert sidecar(out_path)["configuration"]["target"] == 13.9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.txt", "cert.txt.meta.json"]

    def test_failed_rename_keeps_the_old_certificate_and_no_temporary(
        self, capsys, monkeypatch, tmp_path
    ):
        out_path = tmp_path / "cert.txt"
        argv = ["certify", "--rho", "1.755", "--delta", "0.01", "--workers", "1",
                "--output", str(out_path)]
        code, _, _ = run(capsys, *argv, "--target", "14.9")
        assert code == 0
        before = out_path.read_bytes()

        def failing_replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(certifier_module.os, "replace", failing_replace)
        code, out, err = run(capsys, *argv, "--target", "13.9")
        assert code == 3
        assert "No space left on device" in err and "Traceback" not in err
        assert out_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cert.txt", "cert.txt.meta.json"]

    def test_fail_exit_one(self, capsys, tmp_path):
        out_path = str(tmp_path / "cert.txt")
        code, out, _ = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--delta", "0.004",
            "--target", "13.90",
            "--workers", "1",
            "--output", out_path,
        )
        assert code == 1
        assert out.startswith("FAILED")
        assert not parse_certificate(Path(out_path).read_text(encoding="utf-8")).passed

    def test_byte_identical_artifacts_across_runs(self, capsys, tmp_path):
        paths = [str(tmp_path / f"cert{i}.txt") for i in (1, 2)]
        workers = ["1", "2"]
        for path, w in zip(paths, workers):
            code, _, _ = run(
                capsys,
                "certify",
                "--rho", "1.755",
                "--delta", "0.008",
                "--target", "15.0",
                "--workers", w,
                "--output", path,
            )
            assert code == 0
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_csv_summary(self, capsys, tmp_path):
        out_path = str(tmp_path / "cert.txt")
        code, out, _ = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--delta", "0.01",
            "--target", "14.9",
            "--workers", "1",
            "--output", out_path,
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "passed,certified_bound,rho,delta,boxes_checked"
        assert lines[1].startswith("true,")

    def test_domain_error_exit_four(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "certify",
            "--rho", "0.9",
            "--target", "14.0",
            "--output", str(tmp_path / "c.txt"),
        )
        assert code == 4
        assert "error" in err


    def test_thread_variable_recorded_in_sidecar(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KISSBOUND_THREADS", "1")
        out_path = str(tmp_path / "cert.txt")
        code, _, _ = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--delta", "0.01",
            "--target", "14.9",
            "--output", out_path,
        )
        assert code == 0
        meta = json.loads(Path(out_path + ".meta.json").read_text(encoding="utf-8"))
        assert meta["configuration"]["workers"] == 1

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_invalid_thread_variable_usage_error(self, capsys, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("KISSBOUND_THREADS", threads)
        out_path = tmp_path / "c.txt"
        code, _, err = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--delta", "0.01",
            "--target", "14.5",
            "--output", str(out_path),
        )
        assert code == 2
        assert "KISSBOUND_THREADS" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--delta", "--target", "--fp-slack"])
    def test_nan_input_exit_four(self, capsys, tmp_path, flag):
        args = {"--delta": "0.01", "--target": "14.5", "--fp-slack": "1e-9"}
        args[flag] = "nan"
        out_path = tmp_path / "c.txt"
        code, _, err = run(
            capsys,
            "certify",
            "--rho", "1.755",
            *(item for pair in args.items() for item in pair),
            "--workers", "1",
            "--output", str(out_path),
        )
        assert code == 4
        assert "finite" in err
        assert not out_path.exists()
        assert not (tmp_path / "c.txt.meta.json").exists()


    @pytest.mark.parametrize(
        "rho", ["1.0000000000000002", "1.0000000000000004", "2.9999999999999996"]
    )
    def test_degenerate_ratio_exit_four(self, capsys, tmp_path, rho):
        out_path = tmp_path / "c.txt"
        code, out, err = run(
            capsys,
            "certify",
            "--rho", rho,
            "--target", "14.5",
            "--workers", "1",
            "--output", str(out_path),
        )
        assert code == 4
        assert out == ""
        assert "too close" in err
        assert "Traceback" not in err
        assert not out_path.exists()
        assert not (tmp_path / "c.txt.meta.json").exists()

    @pytest.mark.parametrize(
        "content",
        [
            b"garbage",
            b"[1,2]",
            # the JSON checkpoint of earlier versions
            b'{"rho": "0x1.c147ae147ae14p+0", "n": 83, "scan": "levels", "top": 1}',
            b"rho: 1.7549999999999999\n# \xff\n",
        ],
        ids=["garbage", "[1,2]", "json", "non_utf8"],
    )
    def test_corrupt_checkpoint_exit_four(self, capsys, tmp_path, content):
        checkpoint = tmp_path / "scan.ckpt"
        checkpoint.write_bytes(content)
        out_path = tmp_path / "c.txt"
        code, _, err = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--target", "14.5",
            "--delta", "0.01",
            "--workers", "1",
            "--output", str(out_path),
            "--checkpoint", str(checkpoint),
        )
        assert code == 4
        assert "checkpoint" in err
        assert "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "option, name, message",
        [
            ("--output", "missing/c.txt", "not a writable directory"),
            ("--output", ".", "it is a directory"),
            ("--checkpoint", "missing/scan.ckpt", "not a writable directory"),
            ("--checkpoint", ".", "it is a directory"),
        ],
        ids=["output_parent_missing", "output_directory", "checkpoint_parent_missing",
             "checkpoint_directory"],
    )
    def test_unwritable_path_exit_three_before_the_scan(
        self, capsys, monkeypatch, tmp_path, option, name, message
    ):
        def no_scan(*args):
            raise AssertionError("grid tables built for a path that cannot be written")

        monkeypatch.setattr(certifier_module, "_GridScan", no_scan)
        paths = {"--output": str(tmp_path / "c.txt"), option: str(tmp_path / name)}
        code, out, err = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--target", "13.955",
            "--delta", "0.0005",
            "--workers", "1",
            *(part for item in paths.items() for part in item),
        )
        assert code == 3
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_oversized_grid_exit_four(self, capsys, tmp_path):
        out_path = tmp_path / "c.txt"
        code, _, err = run(
            capsys,
            "certify",
            "--rho", "1.755",
            "--target", "14.5",
            "--delta", "1e-300",
            "--workers", "1",
            "--output", str(out_path),
        )
        assert code == 4
        assert "memory" in err
        assert "Traceback" not in err
        assert not out_path.exists()
        assert not (tmp_path / "c.txt.meta.json").exists()


class TestGraph:
    def test_two_ball_file(self, capsys):
        code, out, _ = run(capsys, "graph", data_path("two_balls.json"))
        assert code == 0
        assert "average_degree: 1" in out

    def test_fcc_fixture_with_audit(self, capsys):
        code, out, _ = run(capsys, "graph", data_path("fcc_n2.json"), "--rho", "1.755")
        assert code == 0
        assert "balls: 19" in out
        assert "edge_sum_ok: true" in out
        avg = float(out.split("average_degree: ")[1].split("\n")[0])
        assert avg <= 13.955

    def test_audit_csv(self, capsys):
        code, out, _ = run(
            capsys, "graph", data_path("fcc_n2.json"), "--rho", "1.755", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ball_index,degree,coverage_sum"
        assert len(lines) == 20

    @pytest.mark.parametrize(
        "balls, count, rows",
        [("", 0, ""), ('{"center": [0, 0, 0], "radius": 1}', 1, "0,0,0\n")],
        ids=["empty", "one_ball"],
    )
    def test_fewer_than_two_balls_with_audit(self, capsys, tmp_path, balls, count, rows):
        path = tmp_path / "small.json"
        path.write_text('{"balls": [%s]}' % balls, encoding="utf-8")
        code, out, _ = run(capsys, "graph", str(path), "--rho", "1.755")
        assert code == 0
        assert out == (
            f"balls: {count}\nedges: 0\naverage_degree: 0\nedge_sum: 0\n"
            "edge_sum_floor: 0\nedge_sum_ok: true\nball_index,degree,coverage_sum\n" + rows
        )

    def test_overlap_exit_nonzero(self, capsys):
        code, _, err = run(capsys, "graph", data_path("overlapping.json"))
        assert code == 3
        assert "overlap" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "1", "1e308"])
    def test_non_finite_tolerance_exit_four(self, capsys, recwarn, value):
        # from 1 up every pair of fcc_n2.json's 19 balls read as an edge,
        # with numpy overflow warnings at 1e308
        code, out, err = run(
            capsys, "graph", data_path("two_balls.json"), "--tolerance", value
        )
        assert code == 4
        assert out == ""
        assert "tolerance must lie in [0, 1)" in err
        assert "Traceback" not in err
        assert not recwarn.list

    @pytest.mark.parametrize("spacing", [1e160, 2e160])
    def test_huge_magnitude_exit_four(self, capsys, tmp_path, spacing):
        balls = [
            {"center": [0, 0, 0], "radius": 1e160},
            {"center": [spacing, 0, 0], "radius": 1e160},
        ]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"balls": balls}), encoding="utf-8")
        code, out, err = run(capsys, "graph", str(path))
        assert code == 4
        assert out == ""
        assert "magnitude" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_coordinate_exit_three(self, capsys, tmp_path, literal):
        # Python's JSON parser accepts these literals; the document is
        # rejected while it is read, before any pair is measured
        path = tmp_path / "nan.json"
        path.write_text(
            '{"balls": [{"center": [%s, 0, 0], "radius": 1},'
            ' {"center": [0, 0, 0], "radius": 1}, {"center": [2, 0, 0], "radius": 1}]}'
            % literal,
            encoding="utf-8",
        )
        code, out, err = run(capsys, "graph", str(path))
        assert code == 3
        assert out == ""
        assert "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "ball",
        ['"center": [%s, 0, 0], "radius": 1', '"center": [0, 0, 0], "radius": %s'],
        ids=["center", "radius"],
    )
    def test_integer_beyond_double_range_exit_three(self, capsys, tmp_path, ball):
        path = tmp_path / "huge_int.json"
        path.write_text('{"balls": [{%s}]}' % (ball % ("9" * 400)), encoding="utf-8")
        code, out, err = run(capsys, "graph", str(path))
        assert code == 3
        assert out == ""
        assert "ball 0: coordinates must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("radius", [1e-160, 1e-170])
    def test_tiny_radius_exit_four(self, capsys, tmp_path, radius):
        # a tangent pair whose squared distance would underflow to 0
        balls = [
            {"center": [0, 0, 0], "radius": radius},
            {"center": [2 * radius, 0, 0], "radius": radius},
        ]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"balls": balls}), encoding="utf-8")
        code, out, err = run(capsys, "graph", str(path), "--rho", "1.755")
        assert code == 4
        assert out == ""
        assert "radii must be at least" in err
        assert "Traceback" not in err

    def test_parse_error_exit_three(self, capsys):
        code, _, err = run(capsys, "graph", data_path("malformed.json"))
        assert code == 3
        assert "line" in err

    @pytest.mark.parametrize(
        "content",
        [b'\xff\xfe{"balls": []}', b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unreadable_document_exit_three(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "graph", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run(capsys, "graph", "/nonexistent/path.json")
        assert code == 3
        assert err.startswith("error: cannot read /nonexistent/path.json: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rho", [None, "1.755"])
    def test_metadata_keys_in_order(self, capsys, rho):
        argv = ["graph", data_path("fcc_n2.json")] + ([] if rho is None else ["--rho", rho])
        code, _, err = run(capsys, *argv)
        assert code == 0
        meta = stderr_metadata(err)
        assert list(meta) == REPORT_KEYS
        assert meta["configuration"] == {
            "command": "graph", "format": "text", "input": data_path("fcc_n2.json"),
            "rho": None if rho is None else 1.755, "tolerance": DEFAULT_TOLERANCE,
        }
        assert list(meta["outputs"]) == ["stdout"]


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    sweep = parser.parse_args(["optimize", "--rho-lo", "1.7", "--rho-hi", "1.8", "--step", "0.1"])
    assert (sweep.grid_step, sweep.tol) == (SearchConfig().grid_step, SearchConfig().tol)
    cert = parser.parse_args(["certify", "--rho", "1.755", "--target", "14"])
    assert (cert.delta, cert.fp_slack) == (0.0005, DEFAULT_FP_SLACK)
    graph = parser.parse_args(["graph", "packing.json"])
    assert graph.tolerance == DEFAULT_TOLERANCE


def exit_code_and_output(argv):
    """main(argv) in this process: its exit code (argparse's SystemExit
    included), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_documented_ending(argv, output=None):
    # an uncaught exception fails the test by itself; exit 1 is for a failed
    # certification only, with its certificate at `output`; a NaN may show on
    # stderr only where the arguments held one and an error message echoes
    # them
    code, out, err = exit_code_and_output(argv)
    if code == 1 and output is not None:
        assert not parse_certificate(Path(output).read_text(encoding="utf-8")).passed
    else:
        assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert "nan" not in out.lower(), (argv, out)
    if not any("nan" in arg.lower() for arg in argv):
        assert "nan" not in err.lower(), (argv, err)


ODD_FLOATS = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e308", "-1"]


def mostly(valid, odd=ODD_FLOATS):
    """One of the valid values about nine times in ten, else an odd one."""
    return st.sampled_from(valid * (9 * len(odd) // len(valid)) + odd)


@st.composite
def optimize_argv(draw):
    lo = draw(mostly([1.0000001, 1.3, 1.755, 2.9999999], [1.0, 3.0]))
    # short ranges: at most three ratios unless the step is odd
    short = [repr(lo), repr(lo + 0.004), repr(lo + 0.01)]
    hi = draw(mostly(short, [repr(lo - 0.01), *ODD_FLOATS]))
    argv = ["optimize", "--rho-lo", repr(lo), "--rho-hi", hi]
    argv += ["--step", draw(mostly(["0.005", "0.01", "1"]))]
    argv += ["--grid-step", draw(mostly(["0.3", "0.5", "2"]))]
    argv += ["--tol", draw(mostly(["1e-10", "1e-3", "0.5"]))]
    argv += ["--workers", draw(mostly(["1", "2"], ["0", "-1", "x"]))]
    if draw(st.booleans()):
        argv += ["--prune", draw(mostly(["14", "13.9"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "csv"]))]


@st.composite
def highdim_argv(draw):
    argv = ["highdim", "--d", draw(mostly(["3", "4", "8", "64"], ["2", "65", "3.5", "x"]))]
    if draw(st.booleans()):
        argv += ["--rho", draw(mostly(["1.0000001", "1.755", "2.9999999"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "csv"]))]


@st.composite
def certify_argv(draw):
    """certify arguments, with --output (and --checkpoint) under the
    directory name "{dir}".  Valid deltas are coarse; every odd one is
    rejected before a table is built."""
    argv = ["certify", "--rho", draw(mostly(["1.3", "1.755", "2.5"]))]
    argv += ["--delta", draw(mostly(["0.01", "0.02", "0.05"], [*ODD_FLOATS, "1e-300"]))]
    argv += ["--target", draw(mostly(["14", "30", "200"]))]
    if draw(st.booleans()):
        argv += ["--fp-slack", draw(mostly(["1e-9", "0"]))]
    argv += ["--workers", draw(mostly(["1", "2"], ["0", "-1", "x"]))]
    argv += ["--output", os.path.join("{dir}", "cert.txt")]
    if draw(st.booleans()):
        argv += ["--checkpoint", os.path.join("{dir}", "scan.ckpt")]
    return argv + ["--format", draw(st.sampled_from(["text", "csv"]))]


def _ball_list(text):
    return '{"balls": [%s, {"center": [0, 0, 0], "radius": 1}]}' % text


GRAPH_DOCUMENTS = {
    "fcc.json": json.dumps(
        {"balls": [{"center": b.center, "radius": b.radius} for b in fcc_fragment(1).balls]}
    ),
    "nan.json": _ball_list('{"center": [NaN, 0, 0], "radius": 1}'),
    "infinity.json": _ball_list('{"center": [2, 0, 0], "radius": Infinity}'),
    "huge.json": _ball_list('{"center": [1e400, 0, 0], "radius": 1}'),
    "huge_int.json": _ball_list('{"center": [%s, 0, 0], "radius": 1}' % ("9" * 400)),
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "overlapping.json": _ball_list('{"center": [1.9, 0, 0], "radius": 1}'),
    "list.json": "[1, 2]",
}


@st.composite
def graph_argv(draw):
    # the valid document about half the time
    bad = sorted(set(GRAPH_DOCUMENTS) - {"fcc.json"})
    name = draw(st.sampled_from(["fcc.json"] * len(bad) + bad))
    argv = ["graph", os.path.join("{dir}", name)]
    if draw(st.booleans()):
        argv += ["--rho", draw(mostly(["1.3", "1.755", "2.5"]))]
    if draw(st.booleans()):
        argv += ["--tolerance", draw(mostly(["1e-9", "1e-6"], [*ODD_FLOATS, "1"]))]
    return argv + ["--format", draw(st.sampled_from(["text", "csv"]))]


class TestExitCodes:
    """Every input ends in exit 0-4, never in a traceback or a NaN."""

    @given(optimize_argv())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_optimize(self, argv):
        assert_documented_ending(argv)

    @given(highdim_argv())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_highdim(self, argv):
        assert_documented_ending(argv)

    @given(certify_argv())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_certify(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.format(dir=tmp) for arg in argv]
            assert_documented_ending(argv, output=os.path.join(tmp, "cert.txt"))

    @given(graph_argv())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_graph(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            for name, document in GRAPH_DOCUMENTS.items():
                Path(tmp, name).write_text(document, encoding="utf-8")
            assert_documented_ending([arg.format(dir=tmp) for arg in argv])
