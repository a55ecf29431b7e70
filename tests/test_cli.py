import json
from pathlib import Path

import pytest

from kissbound import SearchConfig, parse_certificate, sweep_rho
from kissbound import certifier as certifier_module
from kissbound.certifier import DEFAULT_FP_SLACK
from kissbound.cli import build_parser, main
from kissbound.packings import DEFAULT_TOLERANCE

from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert meta["iterations"][:2] == [0, 0] and min(meta["iterations"][2:]) > 0
        assert min(meta["evaluations"][2:]) > 0

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


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    sweep = parser.parse_args(["optimize", "--rho-lo", "1.7", "--rho-hi", "1.8", "--step", "0.1"])
    assert (sweep.grid_step, sweep.tol) == (SearchConfig().grid_step, SearchConfig().tol)
    cert = parser.parse_args(["certify", "--rho", "1.755", "--target", "14"])
    assert (cert.delta, cert.fp_slack) == (0.0005, DEFAULT_FP_SLACK)
    graph = parser.parse_args(["graph", "packing.json"])
    assert graph.tolerance == DEFAULT_TOLERANCE
