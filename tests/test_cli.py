"""The recur2d command line: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import recur2d
from recur2d import fill, loads_problem
from recur2d.cli import main
from conftest import FIXTURES, HOSTILE_FILES

WORKED = str(FIXTURES / "worked_example.json")
SINGLE = str(FIXTURES / "single_cell.json")


def write_spec(tmp_path, d, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def underdetermined_spec(tmp_path):
    return write_spec(tmp_path, {
        "field": {"kind": "rationals"},
        "template": "X*Y + 3*Y + 2*X - I",
        "layout": {"kind": "custom",
                   "values": [{"r": 0, "c": c, "value": int(c == 0)}
                              for c in range(-1, 4)]},
        "window": {"r_min": -1, "r_max": 3, "c_min": -1, "c_max": 3},
    })


def inconsistent_spec(tmp_path):
    values = ([{"r": 0, "c": c, "value": int(c == 0)} for c in range(-1, 4)]
              + [{"r": r, "c": 0, "value": 0} for r in (-1, 1, 2, 3)]
              + [{"r": 1, "c": 1, "value": 999}])   # recurrence forces 1
    return write_spec(tmp_path, {
        "field": {"kind": "rationals"},
        "template": "X*Y + 3*Y + 2*X - I",
        "layout": {"kind": "custom", "values": values},
        "window": {"r_min": -1, "r_max": 3, "c_min": -1, "c_max": 3},
    })


class TestFill:
    def test_ascii_shows_status_and_grid(self, capsys):
        assert main(["fill", WORKED]) == 0
        out = capsys.readouterr().out
        assert "status: complete" in out
        assert "253" in out and "-2/3" in out

    def test_tsv_is_grid_only(self, capsys):
        assert main(["fill", WORKED, "--out", "tsv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[-1].split("\t") == ["-3/8", "0", "9", "60", "253"]

    def test_json_payload(self, capsys):
        assert main(["fill", WORKED, "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "complete"
        assert payload["unfilled"] == []
        assert payload["witness"] is None
        assert payload["window"]["cells"]

    def test_output_is_byte_deterministic(self, capsys):
        main(["fill", WORKED, "--out", "json"])
        first = capsys.readouterr().out
        main(["fill", WORKED, "--out", "json"])
        assert capsys.readouterr().out == first

    def test_partial_fill_still_exits_zero(self, tmp_path, capsys):
        assert main(["fill", underdetermined_spec(tmp_path)]) == 0
        assert "status: partial" in capsys.readouterr().out

    def test_inconsistent_fill_reports_witness(self, tmp_path, capsys):
        assert main(["fill", inconsistent_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "status: inconsistent" in out
        assert "witness: (" in out


def read_rational(text: str) -> Fraction:
    """Fraction(text) for digits of any length, read 1,000 digits at a time."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    num, _, den = text.partition("/")

    def read(digits):
        value = 0
        for k in range(0, len(digits), 1000):
            value = value * 10 ** len(digits[k:k + 1000]) + int(digits[k:k + 1000])
        return value
    return sign * Fraction(read(num), read(den or "1"))


class TestLongIntegers:
    """Values past the interpreter's 4,300-digit int/str limit render exactly."""

    def test_fill_renders_every_digit(self, tmp_path, capsys):
        c = 99999 ** 1000   # 5,000 digits
        doc = {**json.loads(Path(WORKED).read_text()),
               "template": "X*Y + 3*Y + 2*X - 99999^1000"}
        assert main(["fill", write_spec(tmp_path, doc)]) == 0
        header, *rows, status = capsys.readouterr().out.splitlines()
        assert status == "status: complete"
        grid = {(int(r), int(col)): read_rational(text)
                for r, *texts in map(str.split, rows)
                for col, text in zip(header.split()[1:], texts)}
        assert grid[(-1, -1)] == c and grid[(1, 1)] == Fraction(1, c)
        spec = loads_problem(json.dumps(doc))
        window = fill(spec.overlay, spec.layout, spec.window).window
        assert grid == {(r, col): v.value for r, col, v in window.known_cells()}


class TestValidate:
    def test_unique(self, capsys):
        assert main(["validate", WORKED]) == 0
        assert capsys.readouterr().out.strip() == "unique"

    def test_single_cell_empty_layout_is_unique(self, capsys):
        assert main(["validate", SINGLE]) == 0
        assert capsys.readouterr().out.strip() == "unique"

    def test_underdetermined_exits_2(self, tmp_path, capsys):
        assert main(["validate", underdetermined_spec(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("underdetermined: free cell (")

    def test_inconsistent_exits_3(self, tmp_path, capsys):
        assert main(["validate", inconsistent_spec(tmp_path)]) == 3
        assert capsys.readouterr().out.strip() == "inconsistent"


class TestBasis:
    def test_basis_at_origin_equals_delta_fill(self, capsys):
        main(["basis", WORKED, "--at", "0,0", "--out", "tsv"])
        basis_out = capsys.readouterr().out
        main(["fill", WORKED, "--out", "tsv"])
        assert capsys.readouterr().out == basis_out

    def test_basis_at_other_cell_differs(self, capsys):
        main(["basis", WORKED, "--at", "0,1", "--out", "tsv"])
        basis_out = capsys.readouterr().out
        main(["fill", WORKED, "--out", "tsv"])
        assert capsys.readouterr().out != basis_out

    def test_coordinate_outside_layout_fails(self, capsys):
        assert main(["basis", WORKED, "--at", "2,2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_at_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["basis", WORKED, "--at", "zap"])
        assert exc.value.code == 2

    def test_non_integer_at_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["basis", WORKED, "--at", "1,x"])
        assert exc.value.code == 2
        assert "expected integers 'r,c', got '1,x'" in capsys.readouterr().err


class TestOtherCommands:
    def test_series_terms(self, capsys):
        assert main(["series", WORKED]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "-1\t-1\t1"
        assert "3\t3\t253" in lines
        assert all(line.split("\t")[2] != "0" for line in lines)

    def test_check_support(self, capsys):
        assert main(["check-support", WORKED]) == 0
        out = capsys.readouterr().out
        assert "confirmed" in out
        assert "counterexample" not in out

    def test_oracle_diff_agreement(self, capsys):
        assert main(["oracle-diff", WORKED]) == 0
        assert capsys.readouterr().out.startswith("agree: fill complete")

    def test_oracle_diff_on_partial_agreement(self, tmp_path, capsys):
        assert main(["oracle-diff", underdetermined_spec(tmp_path)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_oracle_diff_on_the_five_value_stall_exits_4(self, tmp_path, capsys):
        # Propagation stalls on (0,1) and (1,1); their 2x2 system is unique.
        # Resolving stalls inside the schedule (ROADMAP item 5(c)) changes this
        # output on purpose.
        spec = write_spec(tmp_path, {
            "field": {"kind": "rationals"},
            "template": "X*Y + 3*Y + 2*X - I",
            "layout": {"kind": "custom", "values": [
                {"r": r, "c": c, "value": k} for k, (r, c)
                in enumerate([(0, 0), (0, 3), (1, 0), (1, 2), (1, 3)], 1)]},
            "window": {"r_min": 0, "r_max": 1, "c_min": 0, "c_max": 3},
        })
        assert main(["oracle-diff", spec]) == 4
        assert capsys.readouterr().out == (
            "disagree: fill partial, oracle unique\nfill partial but oracle unique\n")


class TestLargeWindow:
    """A 100x100 window: 10,000 unknowns, beyond what dense elimination
    (two 10^4 x 10^4 matrices) could hold."""

    DOC = {"field": {"kind": "prime", "p": 1000003},
           "template": "X*Y + 3*Y + 2*X - I",
           "layout": {"kind": "standard", "params": {"a": 0, "d": 0},
                      "values": {"generator": "random", "seed": 7}},
           "window": {"r_min": -1, "r_max": 98, "c_min": -1, "c_max": 98}}

    @pytest.mark.parametrize("command,expected", [
        ("validate", "unique\n"),
        ("oracle-diff", "agree: fill complete, oracle unique\n")])
    def test_unique_and_agrees_with_fill(self, tmp_path, capsys, command, expected):
        spec = write_spec(tmp_path, self.DOC)
        t0 = time.perf_counter()
        assert main([command, spec]) == 0
        assert time.perf_counter() - t0 < 20.0
        assert capsys.readouterr().out == expected


class TestFailureModes:
    def test_schema_error_exits_1(self, tmp_path, capsys):
        bad = write_spec(tmp_path, {
            "field": {"kind": "octonions"},
            "template": "X - I",
            "layout": {"kind": "standard", "values": {"generator": "delta"}},
            "window": {"r_min": 0, "r_max": 2, "c_min": 0, "c_max": 2}})
        assert main(["fill", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/field/kind" in err

    @pytest.mark.parametrize("name,data,pointer", HOSTILE_FILES,
                             ids=[case[0] for case in HOSTILE_FILES])
    def test_hostile_file_exits_1_with_one_error_line(self, tmp_path, capsys,
                                                      name, data, pointer):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        assert main(["fill", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {pointer or '/'}: ")
        assert err.count("\n") == 1

    def test_check_support_on_diagonal_layout_exits_1(self, capsys):
        path = str(FIXTURES / "golden" / "diagonal_f7_random.json")
        assert main(["check-support", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("node", [
        {"layout": {"params": {"a": 0, "d": 0}}},
        {"window": {"r_min": "a", "r_max": "b", "c_min": "c", "c_max": "d"}}])
    def test_schema_error_text_is_the_same_in_every_process(self, tmp_path, node):
        # Two missing keys (or two bad bounds) at one node: the one named must
        # not follow the per-process string hash order.
        doc = {**json.loads(Path(WORKED).read_text()), **node}
        spec = write_spec(tmp_path, doc)
        errs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(Path(recur2d.__file__).parents[1])}
            proc = subprocess.run([sys.executable, "-m", "recur2d.cli", "validate", spec],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 1
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: /")

    def test_missing_file_exits_1(self, capsys):
        assert main(["fill", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_console_script_entry_point(self):
        # The child process imports the package these tests import.
        env = {**os.environ, "PYTHONPATH": str(Path(recur2d.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "recur2d.cli", "validate", SINGLE],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "unique"
