"""The package namespace exports exactly what the documented code imports."""

import ast
import pathlib
import re

import ohcross

ROOT = pathlib.Path(__file__).resolve().parent.parent


def documented_sources():
    """The README's python blocks, the demos and the benchmark scripts."""
    readme = (ROOT / "README.md").read_text()
    yield from re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    for pattern in ("demos/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            yield path.read_text()


def package_imports(source):
    """Names imported with `from ohcross import ...` anywhere in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "ohcross" and node.level == 0:
            names.update(alias.name for alias in node.names)
    return names


def test_all_is_what_readme_and_demos_import():
    imported = set()
    for source in documented_sources():
        imported |= package_imports(source)
    assert imported | {"__version__"} == set(ohcross.__all__)


def test_every_exported_name_resolves():
    for name in ohcross.__all__:
        assert getattr(ohcross, name) is not None
