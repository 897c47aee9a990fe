"""The package namespace exports exactly what the documented code imports."""

import ast
import importlib
import pathlib
import re

import pytest

import ohcross
from ohcross.algebra import MonomialTable

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


def linalg_calls(name):
    """(module, enclosing function) of every `np.linalg.<name>(` call in
    src/ohcross."""
    found = []
    for path in sorted((ROOT / "src" / "ohcross").glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and ast.unparse(node.func)
                        == f"np.linalg.{name}"):
                    found.append((path.stem, func.name))
    return found


def test_one_numeric_route_per_role():
    # LAPACK eigvalsh is the production numeric spectrum and the oracle for
    # the closed form, in one place; the determinant is an audit oracle.
    text = "".join(p.read_text() for p in (ROOT / "src" / "ohcross").glob("*.py"))
    assert text.count("np.linalg.eigvalsh(") == 1
    assert linalg_calls("eigvalsh") == [("spectrum", "numeric_levels")]
    assert {module for module, _ in linalg_calls("det")} == {"discriminant"}


def test_constants_live_in_model_only():
    # one fixed set of CODATA constants: each defining literal is written
    # once, in model.py, and everything else imports it from there
    sources = {path.name: path.read_text()
               for path in (ROOT / "src" / "ohcross").glob("*.py")}
    for literal in ("6.62607015e-34", "9.2740100783e-24", "299792458.0",
                    "29.9792458"):
        counts = {name: text.count(literal) for name, text in sources.items()
                  if literal in text}
        assert counts == {"model.py": 1}, literal


def test_one_matrix_construction():
    # every 8x8 matrix is formed in hamiltonian.py: no other module reads
    # the Zeeman diagonal or allocates a (..., 8, 8) array
    found = set()
    for path in sorted((ROOT / "src" / "ohcross").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "ZEEMAN_DIAGONAL":
                found.add((path.stem, "ZEEMAN_DIAGONAL"))
            if isinstance(node, ast.Tuple) and ast.unparse(node) == "(8, 8)":
                found.add((path.stem, "(8, 8)"))
    assert found == {("hamiltonian", "ZEEMAN_DIAGONAL"), ("hamiltonian", "(8, 8)")}


def test_cli_scales_fields_one_way():
    # every command gets its scaled fields from scale_parameters on a
    # FieldConfiguration, so every field value passes the field rules
    names = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "ohcross" / "cli.py").read_text())):
        names.add(node.id if isinstance(node, ast.Name)
                  else node.name if isinstance(node, ast.alias)
                  else node.attr if isinstance(node, ast.Attribute) else None)
    assert {"FieldConfiguration", "scale_parameters"} <= names
    assert not names & {"ScaledParameters", "b_tilde_from_field", "e_tilde_from_field"}


def _is_horner_step(node) -> bool:
    """An accumulator step `acc = acc * x + c`, or a hand-unrolled Horner
    `(a * x + b) * x + c` (either sum may be a difference)."""
    def step(expr):
        # (left, x) of `left * x + c`, else None
        if (isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub))
                and isinstance(expr.left, ast.BinOp)
                and isinstance(expr.left.op, ast.Mult)):
            return expr.left.left, ast.unparse(expr.left.right)
        return None

    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        outer = step(node.value)
        return outer is not None and ast.unparse(outer[0]) == ast.unparse(node.targets[0])
    outer = step(node)
    inner = step(outer[0]) if outer else None
    return inner is not None and inner[1] == outer[1]


def test_one_horner_helper():
    # every polynomial in src/ohcross is evaluated by algebra.horner
    found = set()
    for path in sorted((ROOT / "src" / "ohcross").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                    _is_horner_step(node) for node in ast.walk(func)):
                found.add((path.stem, func.name))
    assert found == {("algebra", "horner")}


def _opens_to_write(node):
    """os.open, or open() with a literal mode holding w, a, x or +."""
    if not isinstance(node, ast.Call):
        return False
    name = ast.unparse(node.func)
    modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return name == "os.open" or name == "open" and any(
        isinstance(mode, ast.Constant) and set(mode.value) & set("wax+") for mode in modes)


def test_one_file_writer():
    # every output file is written by cli._emit (through its opener), the
    # one in-place rewrite it documents
    found = set()
    for path in sorted((ROOT / "src" / "ohcross").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                    _opens_to_write(node) for node in ast.walk(func)):
                found.add((path.stem, func.name))
    assert found == {("cli", "_emit"), ("cli", "_open_in_place")}


def test_one_output_path():
    # each command handler returns (text, exit code) and cli.run alone
    # writes it: _emit is named only in run, and no handler prints
    tree = ast.parse((ROOT / "src" / "ohcross" / "cli.py").read_text())
    naming_emit = {getattr(stmt, "name", None) for stmt in tree.body
                   for node in ast.walk(stmt)
                   if isinstance(node, ast.Name) and node.id == "_emit"}
    assert naming_emit == {"run"}
    handlers = [stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
                and stmt.name.startswith("_cmd_")]
    assert len(handlers) == 8
    for func in handlers:
        returns = [node.value for node in ast.walk(func) if isinstance(node, ast.Return)]
        assert returns, func.name
        assert all(isinstance(value, ast.Tuple) and len(value.elts) == 2
                   for value in returns), func.name
        assert not any(isinstance(node, (ast.Name, ast.Attribute))
                       and ast.unparse(node) in ("sys.stdout", "print")
                       for node in ast.walk(func)), func.name


# The functions that read the frozen tables, by module.
TABLE_FORMS = {"discriminant": ("g_coefficients", "_special_angle_quartics")}


def test_one_table_evaluator():
    # each table is a MonomialTable literal, read by one call from its form
    # function, which only squares its inputs into y, z and w: no ** and no
    # other arithmetic
    called = set()
    for module_name, names in TABLE_FORMS.items():
        module = importlib.import_module(f"ohcross.{module_name}")
        tables = {name for name, value in vars(module).items()
                  if isinstance(value, MonomialTable)}
        for func in ast.walk(ast.parse((ROOT / "src" / "ohcross" / f"{module_name}.py")
                                       .read_text())):
            if not (isinstance(func, ast.FunctionDef) and func.name in names):
                continue
            reads = [ast.unparse(node.func) for node in ast.walk(func)
                     if isinstance(node, ast.Call) and ast.unparse(node.func) in tables]
            assert len(reads) == 1, func.name
            called.update((module_name, name) for name in reads)
            for node in ast.walk(func):
                assert not isinstance(node, ast.AugAssign), func.name
                if isinstance(node, ast.UnaryOp):  # a negative literal only
                    assert isinstance(node.operand, ast.Constant), func.name
                if isinstance(node, ast.BinOp):
                    assert (isinstance(node.op, ast.Mult)
                            and ast.unparse(node.left) == ast.unparse(node.right)), (
                        func.name, ast.unparse(node))
        assert {name for mod, name in called if mod == module_name} == tables
    assert len(called) == 2


def test_no_array_type_dispatch_outside_cli():
    # scalars run as 0-d arrays; only the CLI's text output asks for a type
    found = set()
    for path in sorted((ROOT / "src" / "ohcross").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                    and re.search(r"np\.(ndarray|generic)", ast.unparse(node.args[1]))):
                found.add(path.stem)
    assert found <= {"cli"}


# The run-time checks that share algebra._raise_first's failure rule.
FAILURE_RULE_SITES = {("algebra", "_check"), ("spectrum", "lambda_squared_rows"),
                      ("crossings", "_first_crossing")}


def test_one_failure_rule():
    # each batched check site hands its (mask, error builder) table to
    # algebra._raise_first and has no raise of its own
    calling = set()
    for path in sorted((ROOT / "src" / "ohcross").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            nodes = list(ast.walk(func))
            if any(isinstance(node, ast.Call) and ast.unparse(node.func) == "_raise_first"
                   for node in nodes):
                calling.add((path.stem, func.name))
                assert not any(isinstance(node, ast.Raise) for node in nodes), func.name
    assert calling == FAILURE_RULE_SITES


# Public closed forms that no package code calls: the tests check each.
CHECKED_CLOSED_FORMS = {"resolvent_analysis", "critical_field_tilde",
                        "eval_f2_tilde", "f2_magnitude_tilde"}


def test_every_public_name_has_a_job():
    # a public module-level function or class is referenced by package code
    # outside its own definition, exported, or a closed form the tests check
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "ohcross").glob("*.py"))]
    public, referenced = set(), set()
    for tree in trees:
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and not own.startswith("_"):
                public.add(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referenced.add(name)
    idle = public - referenced - set(ohcross.__all__) - CHECKED_CLOSED_FORMS
    assert not idle, sorted(idle)
    assert CHECKED_CLOSED_FORMS <= public


def test_namespace_lists_and_binds_every_export():
    assert set(ohcross.__all__) <= set(dir(ohcross))
    namespace = {}
    exec("from ohcross import *", namespace)
    for name in ohcross.__all__:
        assert namespace[name] is getattr(ohcross, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'ohcross' has no attribute 'no_such_name'$"):
        ohcross.no_such_name
    assert not hasattr(ohcross, "no_such_name")


def test_all_and_loader_read_one_table():
    # __all__ is built from the table the lazy loader reads, so every
    # exported name is the object its submodule defines under that name
    assert set(ohcross.__all__) == set(ohcross._EXPORTS) | {"__version__"}
    for name, module in ohcross._EXPORTS.items():
        assert getattr(ohcross, name) is getattr(
            importlib.import_module(f"ohcross.{module}"), name)
