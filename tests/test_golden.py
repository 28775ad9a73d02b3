"""Golden reports: stdout and exit code of fixed CLI commands.

``tests/golden/cases.json`` lists each command's argv and exit code, and
``tests/golden/<name>.out`` holds its stdout; no case writes to stderr.
Numbers are compared token by token: integers exactly, floats within
``rel_tol=1e-12`` (libm may differ by one ulp between machines); all other
text, bools included, must match exactly.  The pure-Python parser must print
the same bytes as the compiled kernel.  Running this file as a script
re-runs the listed commands and rewrites their exit codes and stdout from
the current code.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from lz78lab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = json.loads((GOLDEN / "cases.json").read_text())

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def run_case(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert err.getvalue() == ""        # every case reports on stdout only
    return code, out.getvalue()


def split_numbers(text: str):
    """The text between numbers, and the numbers themselves."""
    return NUMBER.split(text), NUMBER.findall(text)


def assert_same_report(got: str, want: str) -> None:
    got_text, got_nums = split_numbers(got)
    want_text, want_nums = split_numbers(want)
    assert got_text == want_text
    assert len(got_nums) == len(want_nums)
    for g, w in zip(got_nums, want_nums):
        if any(ch in w for ch in ".eE"):
            assert math.isclose(float(g), float(w), rel_tol=1e-12), (g, w)
        else:
            assert g == w


@pytest.mark.parametrize("name", list(CASES))
def test_golden_report(name):
    code, out = run_case(CASES[name]["argv"])
    assert code == CASES[name]["exit"]
    assert_same_report(out, (GOLDEN / f"{name}.out").read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_golden_report_is_the_same_on_the_python_parser(name, request):
    argv = CASES[name]["argv"]
    want = run_case(argv)
    request.getfixturevalue("python_parser")
    assert run_case(argv) == want


def test_report_comparison_tolerates_only_float_rounding():
    assert_same_report('{"x": 0.30000000000000004}', '{"x": 0.3}')
    with pytest.raises(AssertionError):
        assert_same_report('{"x": 0.3000001}', '{"x": 0.3}')
    with pytest.raises(AssertionError):
        assert_same_report('{"n": 12}', '{"n": 13}')
    with pytest.raises(AssertionError):
        assert_same_report('{"ok": true}', '{"ok": false}')


def write_golden() -> None:
    for name, case in CASES.items():
        case["exit"], out = run_case(case["argv"])
        (GOLDEN / f"{name}.out").write_text(out)
    lines = [f"  {json.dumps(name)}: {json.dumps(case)}" for name, case in CASES.items()]
    (GOLDEN / "cases.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_golden()
