import ast
from pathlib import Path

import lz78lab


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
