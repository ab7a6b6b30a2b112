"""Byte-exact CLI goldens: every subcommand and output format on a small set
of problem files, compared with the committed ``fixtures/golden/expected.txt``.

To re-record the expected text after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from recur2d.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "golden"
EXPECTED = GOLDEN / "expected.txt"

# (problem file, a coordinate for `basis --at`, whether the layout is standard:
# check-support is defined for standard layouts only)
PROBLEMS = [
    ("worked_example.json", "0,1", True),
    ("single_cell.json", "0,0", False),   # empty layout: basis is an error
    ("golden/diagonal_f7_random.json", "1,-1", False),
    ("golden/custom_coords_random.json", "-1,0", False),
    ("golden/custom_values.json", "2,0", False),
    ("golden/standard_indicator.json", "0,2", True),
    ("golden/underdetermined.json", "0,0", False),
    ("golden/inconsistent.json", "1,1", False),
]
OUTS = ("ascii", "tsv", "json")


def _argvs():
    for name, at, standard in PROBLEMS:
        yield ["validate", name]
        if standard:
            yield ["check-support", name]
        yield ["series", name]
        yield ["oracle-diff", name]
        for out in OUTS:
            yield ["fill", name, "--out", out]
            yield ["basis", name, f"--at={at}", "--out", out]


CASES = [" ".join(argv) for argv in _argvs()]


def run(case: str) -> tuple[str, int]:
    argv = case.split(" ")
    argv[1] = str(FIXTURES / argv[1])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return out.getvalue(), code


def block(case: str, out: str, code: int) -> str:
    return f"$ recur2d {case}\n{out}[exit {code}]\n"


def read_expected() -> dict[str, str]:
    blocks: dict[str, str] = {}
    case = None
    lines: list[str] = []
    for line in EXPECTED.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ recur2d "):
            case = line[len("$ recur2d "):].rstrip("\n")
            lines = [line]
            continue
        lines.append(line)
        if line.startswith("[exit "):
            blocks[case] = "".join(lines)
    return blocks


@pytest.fixture(scope="module")
def expected():
    return read_expected()


def test_expected_text_covers_every_case(expected):
    assert list(expected) == CASES


@pytest.mark.parametrize("case", CASES)
def test_stdout_and_exit_code(case, expected):
    out, code = run(case)
    assert block(case, out, code) == expected[case]


USAGE_ERROR = ("usage: recur2d basis [-h] --at r,c [--out {ascii,tsv,json}] spec\n"
               "recur2d basis: error: the following arguments are required: --at\n")


def usage_error(capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(["basis", str(FIXTURES / "worked_example.json")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_usage_error_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_error(capsys) == USAGE_ERROR


def test_one_process_serves_many_calls(monkeypatch, expected, capsys):
    """main keeps answering correctly across calls, a usage error included."""
    monkeypatch.setenv("COLUMNS", "80")
    for case in CASES[:12] + CASES[:12]:
        out, code = run(case)
        assert block(case, out, code) == expected[case]
        assert usage_error(capsys) == USAGE_ERROR


def record() -> None:
    """Rewrite expected.txt from the current engine's output."""
    text = []
    for case in CASES:
        out, code = run(case)
        assert not any(line.startswith(("$ recur2d ", "[exit "))
                       for line in out.splitlines())
        text.append(block(case, out, code))
    EXPECTED.write_text("".join(text), encoding="utf-8")


if __name__ == "__main__":
    record()
