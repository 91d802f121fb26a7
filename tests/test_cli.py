import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from clustersim.cli import parse_angle, run

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "cli_output.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
SRC_PATH = Path(__file__).resolve().parent.parent / "src"
NINE_SETTINGS = "XXZZ,ZZXX,ZZYY,XYXY,XYYX,YXXY,YXYX,YYZZ,ZZZZ"  # the greedy settings of F


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    obj = json.loads(captured.out)
    jsonschema.validate(obj, SCHEMA)
    return obj


class TestParseAngle:
    def test_literals(self):
        assert parse_angle("pi") == math.pi
        assert parse_angle("pi/2") == math.pi / 2
        assert parse_angle("-pi/2") == -math.pi / 2
        assert parse_angle("1.5707963") == pytest.approx(math.pi / 2, abs=1e-6)

    def test_invalid(self):
        from clustersim.cli import UsageError

        with pytest.raises(UsageError):
            parse_angle("tau")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "pi/0", "pi/nan"])
    def test_not_finite(self, text):
        from clustersim.cli import UsageError

        with pytest.raises(UsageError, match="--beta"):
            parse_angle(text, "--beta")


class TestWitnessCommand:
    def test_ideal(self, capsys):
        obj = run_json(capsys, ["witness"])
        assert obj["b2"]["bound"] == pytest.approx(1.0, abs=1e-12)
        assert obj["b4"]["bound"] == pytest.approx(1.0, abs=1e-12)
        assert obj["f"] == {"bound": pytest.approx(1.0, abs=1e-12), "sigma": None}
        assert obj["settings"]["b2"] == ["ZZXX", "XXZZ"]
        assert obj["settings"]["b4"] == ["XXZZ", "ZZXX", "YYZZ", "ZZYY"]
        assert obj["settings"]["f"] == NINE_SETTINGS.split(",")
        assert list(obj) == ["command", "noise", "b2", "b4", "f", "settings"]

    def test_white_noise(self, capsys):
        obj = run_json(capsys, ["witness", "--noise", "white:0.86"])
        assert obj["b4"]["bound"] == pytest.approx(0.86, abs=1e-12)
        assert obj["b2"]["bound"] == pytest.approx(0.79, abs=1e-12)
        assert obj["f"]["bound"] == pytest.approx(0.86875, abs=1e-12)

    def test_bad_noise_is_usage_error(self, capsys):
        assert run(["witness", "--noise", "purple:1"]) == 1

    def test_empty_counts_path_is_data_error(self, capsys):
        assert run(["ingest", "--counts", ""]) == 2
        assert capsys.readouterr().err.startswith("data error: cannot read ")

    def test_counts_is_usage_error(self, capsys):
        """`ingest` is the one command that reads counts."""
        assert run(["witness", "--counts", "x"]) == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --counts x\n"

    @pytest.mark.parametrize("command", ["ingest"])
    def test_counts_not_utf8_process_exit(self, command, tmp_path):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_bytes(b"\xff\xfe")
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "clustersim.cli", command, "--counts", str(csv_path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"data error: cannot read {csv_path}: ")
        assert "Traceback" not in proc.stderr

    def test_noise_with_counts_process_exit(self, tmp_path):
        """`--counts` is no `witness` option: a usage error, with or without --noise."""
        csv_path = tmp_path / "counts.csv"
        assert run(["sample", "--shots", "100", "--out", str(csv_path)]) == 0
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "clustersim.cli"]
        argv += ["witness", "--counts", str(csv_path), "--noise", "white:0.5"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"usage error: unrecognized arguments: --counts {csv_path}\n"


class TestSchmidtCommand:
    def test_signatures(self, capsys):
        obj = run_json(capsys, ["schmidt"])
        assert obj["signatures"]["cluster4"] == [2, 4, 4]
        assert obj["signatures"]["ghz4"] == [2, 2, 2]
        assert obj["signatures"]["dicke4"] == [3, 3, 3]
        assert obj["ceilings"]["13"]["k2"] == pytest.approx(0.5)
        assert obj["ceilings"]["13"]["k3"] == pytest.approx(0.75)

    def test_classification(self, capsys):
        obj = run_json(capsys, ["schmidt", "--fidelity", "0.86"])
        assert "dicke" in obj["excluded_classes"]


class TestMbqcCommand:
    def test_single_rotation_to_h(self, capsys):
        obj = run_json(capsys, ["mbqc", "--task", "single", "--alpha", "pi/2", "--beta", "pi/2"])
        row = obj["rows"][0]
        assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert len(row["branch_fidelities"]) == 8

    def test_two_qubit_sweep(self, capsys):
        obj = run_json(capsys, ["mbqc", "--task", "two-qubit"])
        assert len(obj["rows"]) == 8
        for row in obj["rows"]:
            assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_alpha_without_beta(self, capsys):
        assert run(["mbqc", "--task", "single", "--alpha", "0"]) == 1

    @pytest.mark.parametrize(
        "task, alpha, beta", [("two-qubit", "pi", "-pi/2"), ("single", "-pi/2", "0")]
    )
    def test_negative_angle_forms(self, capsys, task, alpha, beta):
        spaced = run_json(capsys, ["mbqc", "--task", task, "--alpha", alpha, "--beta", beta])
        joined = run_json(capsys, ["mbqc", "--task", task, f"--alpha={alpha}", f"--beta={beta}"])
        abbreviated = run_json(capsys, ["mbqc", "--task", task, "--alph", alpha, "--b", beta])
        assert spaced == joined == abbreviated
        row = spaced["rows"][0]
        assert (row["alpha"], row["beta"]) == (parse_angle(alpha), parse_angle(beta))
        assert row["mean_fidelity"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "-inf")])
    def test_non_finite_angle_is_usage_error(self, capsys, flag, value):
        angles = {"--alpha": "0", "--beta": "0", flag: value}
        argv = ["mbqc", "--task", "single", "--alpha", angles["--alpha"], "--beta", angles["--beta"]]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and value in err

    def test_unrealizable_angles_are_usage_error(self, capsys):
        assert run(["mbqc", "--task", "single", "--alpha", "0.3", "--beta", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --alpha 0.3 --beta 0.2:") and "cannot realize" in err

    def test_non_finite_angle_process_exit(self):
        argv = [sys.executable, "-m", "clustersim.cli", "mbqc", "--task", "single"]
        argv += ["--alpha", "nan", "--beta", "0"]
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "--alpha" in proc.stderr and "Traceback" not in proc.stderr


class TestBoundsCommand:
    def test_two_qubit(self, capsys):
        obj = run_json(capsys, ["bounds", "--task", "two-qubit"])
        assert obj["bound"] == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-9)
        assert obj["margin_sigma"] == pytest.approx(4.14, abs=0.01)

    def test_single(self, capsys):
        obj = run_json(capsys, ["bounds", "--task", "single"])
        assert obj["bound"] == pytest.approx(1 / 3 + 2 / 3 * math.cos(math.pi / 8) ** 2, abs=1e-9)


class TestSampleIngest:
    def test_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "counts.csv"
        assert run(["sample", "--shots", "100000", "--seed", "3", "--out", str(csv_path)]) == 0
        capsys.readouterr()
        obj = run_json(capsys, ["ingest", "--counts", str(csv_path)])
        assert obj["b4"]["bound"] == pytest.approx(1.0, abs=0.01)
        assert obj["b2"]["bound"] == pytest.approx(1.0, abs=0.02)
        assert obj["f"] is None  # the default settings are B4's four

    def test_nine_settings_give_the_fidelity(self, tmp_path, capsys):
        csv_path = tmp_path / "counts9.csv"
        argv = ["sample", "--settings", NINE_SETTINGS, "--noise", "white:0.86", "--shots", "20000", "--seed", "3"]
        assert run(argv + ["--out", str(csv_path)]) == 0
        capsys.readouterr()
        obj = run_json(capsys, ["ingest", "--counts", str(csv_path)])
        assert 0 < obj["f"]["sigma"] < 0.01
        assert abs(obj["f"]["bound"] - 0.86875) <= 4 * obj["f"]["sigma"]
        assert obj["b2"] is not None and obj["b4"] is not None

    def test_zero_total_setting_only_f_reads_leaves_f_null(self, tmp_path, capsys):
        """A zero-total setting makes only the observables that read it null."""
        csv_path = tmp_path / "counts9.csv"
        argv = ["sample", "--settings", NINE_SETTINGS, "--noise", "white:0.86", "--shots", "20000", "--seed", "3"]
        assert run(argv + ["--out", str(csv_path)]) == 0
        rows = csv_path.read_text().splitlines()
        rows = [row.rsplit(",", 1)[0] + ",0" if row.startswith("XYXY,") else row for row in rows]
        csv_path.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        obj = run_json(capsys, ["ingest", "--counts", str(csv_path)])
        assert obj["f"] is None
        for name, value in (("b2", 0.79), ("b4", 0.86)):
            assert 0 < obj[name]["sigma"] < 0.01
            assert abs(obj[name]["bound"] - value) <= 4 * obj[name]["sigma"]

    def test_noisy_sample(self, tmp_path, capsys):
        csv_path = tmp_path / "noisy.csv"
        run(["sample", "--noise", "white:0.86", "--shots", "100000", "--seed", "5", "--out", str(csv_path)])
        capsys.readouterr()
        obj = run_json(capsys, ["ingest", "--counts", str(csv_path)])
        assert obj["b4"]["bound"] == pytest.approx(0.86, abs=0.02)

    def test_partial_settings(self, tmp_path, capsys):
        csv_path = tmp_path / "b2only.csv"
        run(["sample", "--settings", "XXZZ,ZZXX", "--shots", "10000", "--seed", "1", "--out", str(csv_path)])
        capsys.readouterr()
        obj = run_json(capsys, ["ingest", "--counts", str(csv_path)])
        assert obj["b4"] is None
        assert obj["b2"] is not None

    def test_wrong_length_setting_is_usage_error(self, capsys):
        assert run(["sample", "--settings", "XXZZ,XXZ"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: setting 'XXZ' does not match a register of 4 qubits\n"

    def test_wrong_length_setting_process_exit(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "clustersim.cli", "sample", "--settings", "XXZ"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: setting 'XXZ'") and "Traceback" not in proc.stderr

    def test_empty_settings_is_usage_error(self, capsys):
        """An empty --settings is one empty setting, as in 'XXZZ,', not the default list."""
        for settings in ("", "XXZZ,"):
            assert run(["sample", "--settings", settings, "--shots", "10"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "usage error: invalid setting ''\n"

    @pytest.mark.parametrize("shots", ["0", "9223372036854775808", "99999999999999999999999"])
    def test_shots_outside_c_long_is_usage_error(self, shots, capsys):
        assert run(["sample", "--shots", shots]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --shots must lie in 1..2**63 - 1, got {shots}\n"

    def test_huge_shots_process_exit(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "clustersim.cli", "sample", "--shots", "99999999999999999999999"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: --shots") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "rows,line",
        [
            (["XXZZ,++HH,100000000000000000000000"], 2),
            (["XXZZ,++HH,9223372036854775807", "XXZZ,++HH,1"], 3),
            (["XXZZ,++HH,4611686018427387904", "XXZZ,--HH,4611686018427387904"], 3),
        ],
    )
    def test_counts_past_int64_are_data_errors(self, rows, line, tmp_path, capsys):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("\n".join(["setting,outcome,count", *rows]) + "\n")
        assert run(["ingest", "--counts", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: line {line}: setting XXZZ's total count exceeds 2**63 - 1\n"

    def test_counts_past_int64_process_exit(self, tmp_path):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("setting,outcome,count\nXXZZ,++HH,100000000000000000000000\n")
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "clustersim.cli"]
        argv += ["ingest", "--counts", str(csv_path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: line 2") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_missing_file_is_data_error(self, capsys):
        assert run(["ingest", "--counts", "/nonexistent/file.csv"]) == 2

    @pytest.mark.parametrize("sub", ["ingest"])
    def test_zero_total_setting_is_named(self, sub, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("setting,outcome,count\nZZXX,HH++,0\nXXZZ,++HH,5\n")
        assert run([sub, "--counts", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: setting ZZXX has zero total counts")

    @pytest.mark.parametrize("sub", ["ingest"])
    def test_file_covering_neither_witness(self, sub, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("setting,outcome,count\nXXXX,++++,5\n")
        assert run([sub, "--counts", str(path)]) == 2
        assert "covers neither witness's settings" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row,message",
        [
            ("xxzz,++HH,3", "invalid setting 'xxzz'"),
            ("XXZZ,++HQ,3", "outcome letter 'Q' invalid for basis Z"),
            ("X" * 26 + "," + "+" * 26 + ",1", "a setting on 26 qubits exceeds the limit of 16"),
        ],
    )
    def test_bad_setting_or_outcome_names_the_line(self, row, message, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"setting,outcome,count\nXXZZ,++HH,5\n{row}\n")
        assert run(["ingest", "--counts", str(bad)]) == 2
        assert capsys.readouterr().err == f"data error: line 3: {message}\n"

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        """A spreadsheet's UTF-8 byte-order mark before the header reads as the plain file."""
        plain, marked = tmp_path / "counts.csv", tmp_path / "bom.csv"
        assert run(["sample", "--shots", "1000", "--out", str(plain)]) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        plain_obj, marked_obj = (run_json(capsys, ["ingest", "--counts", str(p)]) for p in (plain, marked))
        assert (marked_obj["b2"], marked_obj["b4"]) == (plain_obj["b2"], plain_obj["b4"])

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("setting,outcome,count\nXXZZ,++HH,-3\n")
        assert run(["ingest", "--counts", str(bad)]) == 2


class TestDeterminismAndErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mbqc", "--task", "two-qubit", "--noise", "dephase:0.1:7"],
            ["witness", "--noise", "dephase:0.1:0"],
            ["sample", "--noise", "dephase:0.1:9"],
        ],
    )
    def test_dephasing_qubit_out_of_range_process_exit(self, argv):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "clustersim.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: --noise") and "out of range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_repeated_dephasing_qubit_is_usage_error(self, capsys):
        assert run(["witness", "--noise", "dephase:0.1:1,1"]) == 1
        assert capsys.readouterr().err.startswith("usage error: --noise 'dephase:0.1:1,1'")

    def test_repeated_dephasing_qubit_process_exit(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "clustersim.cli", "witness", "--noise", "dephase:0.1:1,1"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: --noise") and "distinct" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_empty_dephasing_label_is_usage_error(self, capsys):
        assert run(["witness", "--noise", "dephase:0.1:1,,2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --noise 'dephase:0.1:1,,2': qubit list '1,,2' has an empty label")

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("dephase:0.1:1.5", "qubit label '1.5' is not an integer"),
            ("white:abc", "noise parameter 'abc' is not a number"),
        ],
    )
    def test_unparsable_noise_field_process_exit(self, spec, message):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "clustersim.cli", "witness", "--noise", spec]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == f"usage error: --noise {spec!r}: {message}\n"

    def test_empty_dephasing_label_process_exit(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "clustersim.cli", "witness", "--noise", "dephase:0.1:1,,2"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: --noise") and "empty label" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_identical_argv_identical_output(self, capsys):
        run(["sample", "--shots", "1000", "--seed", "11"])
        first = capsys.readouterr().out
        run(["sample", "--shots", "1000", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(["sample", "--shots", "10", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --seed must be nonnegative\n"

    def test_negative_seed_process_exit(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_PATH) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = [sys.executable, "-m", "clustersim.cli", "sample", "--seed", "-1"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "usage error: --seed must be nonnegative\n"
        assert proc.stdout == "" and "Traceback" not in proc.stderr

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert run([]) == 1

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run(["witness", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        jsonschema.validate(obj, SCHEMA)
