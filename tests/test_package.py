import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lz78lab
from lz78lab import parsing


def test_all_is_what_the_package_binds():
    names = lz78lab.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    # the public names bound by the statements of __init__.py
    tree = ast.parse(Path(lz78lab.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert set(names) == {name for name in bound if not name.startswith("_")}
    for name in names:
        assert getattr(lz78lab, name) is not None
    namespace = {}
    exec("from lz78lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)


def test_readme_quick_tour_runs():
    """The python block under the README's "Library quick tour" heading runs
    as written, so a rename in the library cannot leave it stale."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


# run in a child, since pytest has imported numpy here: after each step, one
# line of whether numpy and ctypes are loaded
NUMPY_FREE_STEPS = """
import contextlib, io, json, sys
def report(step):
    print(json.dumps([step, "numpy" in sys.modules, "ctypes" in sys.modules]), flush=True)
import lz78lab
report("import lz78lab")
from lz78lab import cli, parsing
report("import lz78lab.cli")
assert parsing._KERNEL is not None, "the child bound no kernel"
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    report(argv[0])
"""


@pytest.mark.skipif(parsing._KERNEL is None,
                    reason="without the kernel the seeded stream is numpy's bit generator")
def test_short_commands_never_import_numpy(tmp_path):
    """The package, the CLI and the short commands that only parse load no
    numpy: it costs more start-up than a short command's work.  Nor do they
    load ctypes: the kernel's binding takes the parser's arrays themselves."""
    text = tmp_path / "w.txt"
    text.write_text("0110101110010111\n")
    commands = [["bound-fuzz", "--trials", "50", "--max-len", "300"],
                ["parse", "--word", "0110101110"],
                ["ratio", "--word", "0110101110"],
                ["curve", "--input", str(text)]]
    src = str(Path(lz78lab.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", NUMPY_FREE_STEPS, json.dumps(commands)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    steps = [json.loads(line) for line in child.stdout.splitlines()]
    assert [step for step, _, _ in steps] == ["import lz78lab", "import lz78lab.cli",
                                              "bound-fuzz", "parse", "ratio", "curve"]
    assert [step for step, numpy, _ in steps if numpy] == []
    assert [step for step, _, ctypes in steps if ctypes] == []
