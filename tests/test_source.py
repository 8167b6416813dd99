"""Hygiene checks over the `wordcode` package, its tests and its CI workflow."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import wordcode

PACKAGE = Path(wordcode.__file__).parent
TESTS = Path(__file__).parent
REPO = TESTS.parent


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by the module's imports that it never reads.

    A read is a `Name` node, or a name inside a string annotation such
    as `"EccCode | None"`.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                expr = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_no_module_imports_an_unused_name():
    # The package, less its re-exporting `__init__`, and the tests.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    modules += sorted(TESTS.glob("*.py"))
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_unused_import_check_sees_a_leftover():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport numpy as np\nfrom .a import b, c\n"
                     "x: \"c | None\" = np.zeros(1)\ny = \"b\"\n")
    assert _unused_imports(tree) == ["b (line 4)", "json (line 2)"]


def _bulk_imports(tree: ast.Module) -> list:
    """Line numbers of the module's imports of numpy or `_kernels`, ascending."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n.split(".")[0] == "numpy" or "_kernels" in n.split(".") for n in names):
            found.append(node.lineno)
    return sorted(found)


def test_only_the_bulk_modules_import_numpy_or_kernels():
    # The spec route (word-RAM primitives, number theory, outer code, and
    # `ecc_core`'s build, encode and serialization) and the CLI run on
    # host integers.  numpy serves the kernels, the bulk encoder and
    # measurements (`bulk`, `sighash`), and the multiplier scan at an
    # untabled threshold (`inner_mult`, inside its scan branch).
    bulk = {"_kernels.py", "bulk.py", "inner_mult.py", "sighash.py"}
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in bulk)
    assert {p.name for p in modules} >= {"outer_rs.py", "wordram.py", "numtheory.py",
                                         "ecc_core.py", "cli.py"}
    found = {p.name: _bulk_imports(ast.parse(p.read_text(encoding="utf-8")))
             for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def test_bulk_import_check_sees_a_leftover():
    tree = ast.parse("import json\nimport numpy as np\nfrom numpy.random import default_rng\n"
                     "from . import _kernels, errors\nfrom ._kernels import poly_mul_mod\n"
                     "from .errors import ParameterError\nimport wordcode._kernels\n"
                     "def f():\n    import numpy\n    from wordcode import _kernels\n")
    assert _bulk_imports(tree) == [2, 3, 4, 5, 7, 9, 10]


def _asserts(tree: ast.Module) -> list:
    """Line numbers of the module's `assert` statements, ascending."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_no_module_guards_with_assert():
    # Guarantees are explicit errors: `python -O` strips every assert.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {p.name: _asserts(ast.parse(p.read_text(encoding="utf-8"))) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def test_assert_check_sees_a_guard():
    tree = ast.parse("x = 1\nassert x, 'set'\ndef f(y):\n    assert y > 0\n    return y\n")
    assert _asserts(tree) == [2, 4]


def _unused_error_classes(errors: ast.Module, modules: list) -> list:
    """Classes defined in `errors` that no tree in `modules` raises,
    catches or subclasses, sorted.  An import or a mention as a value
    does not count."""

    def names(expr):
        if isinstance(expr, ast.Call):
            return names(expr.func)
        if isinstance(expr, ast.Tuple):
            return {n for elt in expr.elts for n in names(elt)}
        if isinstance(expr, ast.Name):
            return {expr.id}
        if isinstance(expr, ast.Attribute):
            return {expr.attr}
        return set()

    used = set()
    for tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= names(node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= names(node.type)
            elif isinstance(node, ast.ClassDef):
                used |= {n for base in node.bases for n in names(base)}
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    return sorted(defined - used)


def test_every_error_class_is_raised_caught_or_subclassed():
    # An exception type that no other module raises, catches or extends
    # is a refusal that cannot fire.
    errors = PACKAGE / "errors.py"
    modules = [ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py")) if p != errors]
    assert modules
    assert _unused_error_classes(ast.parse(errors.read_text(encoding="utf-8")), modules) == []


def test_error_class_check_sees_a_leftover():
    errors = ast.parse("class Base(Exception):\n    pass\n"
                       "class Raised(Base):\n    pass\n"
                       "class Caught(Base):\n    pass\n"
                       "class Sub(Base):\n    pass\n"
                       "class Leftover(Base):\n    pass\n")
    module = ast.parse("from . import errors\nfrom .errors import Leftover, Raised, Sub\n"
                       "class Mine(Sub):\n    pass\n"
                       "def f(x):\n    try:\n        raise Raised(Leftover)\n"
                       "    except (ValueError, errors.Caught):\n        raise Base\n")
    assert _unused_error_classes(errors, [module]) == ["Leftover"]


def _word_unit_calls(tree: ast.Module) -> list:
    """Line numbers of the module's calls to a `.words(` attribute, ascending."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "words")


def test_only_wordram_computes_word_units():
    # Every charge passes bit widths, so `OpLedger.op_units` is the one
    # place the cost rules turn bits into word units.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "wordram.py")
    assert modules
    found = {p.name: _word_unit_calls(ast.parse(p.read_text(encoding="utf-8")))
             for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def test_word_unit_check_sees_a_call():
    tree = ast.parse("n = led.words(8)\nwords(3)\nx = a.b.words(\n    1) + 2\nled.words\n")
    assert _word_unit_calls(tree) == [1, 3]


def _optional_ledgers(tree: ast.Module) -> list:
    """Names of the module's functions whose `ledger` parameter defaults
    to None, in line order."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults += zip(args.kwonlyargs, args.kw_defaults)
        if any(arg.arg == "ledger" and isinstance(default, ast.Constant)
               and default.value is None for arg, default in defaults):
            found.append((node.lineno, node.name))
    return [name for _, name in sorted(found)]


def test_only_encode_sig_eval_and_primitives_take_an_optional_ledger():
    # Public encodes run uncharged without a ledger, and plan constants
    # are built with uncharged primitives.  Every other function that
    # charges is handed the ledger it charges: stages and build phases.
    found = [name for p in sorted(PACKAGE.glob("*.py"))
             for name in _optional_ledgers(ast.parse(p.read_text(encoding="utf-8")))]
    assert sorted(found) == ["div_by_const", "encode", "pack_fields", "sig_eval",
                             "unpack_fields", "wide_mul", "wide_or", "wide_shl"]


def test_optional_ledger_check_sees_a_default():
    tree = ast.parse("def f(x, ledger=None):\n    pass\n"
                     "def g(x, ledger):\n    pass\n"
                     "def h(x, *, ledger=None):\n    pass\n"
                     "def k(ledger: 'OpLedger | None' = None, y=1):\n    pass\n"
                     "def m(x, ledger=0, other=None):\n    pass\n"
                     "class C:\n    def method(self, y, ledger=None):\n        pass\n")
    assert _optional_ledgers(tree) == ["f", "h", "k", "method"]


def test_ci_runs_tier1_at_the_declared_floors():
    # Read as text: PyYAML is not a test dependency.  One job runs the
    # lowest Python and numpy that pyproject.toml admits, and the test
    # step runs the ROADMAP's tier-1 command.
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    roadmap = (REPO / "ROADMAP.md").read_text(encoding="utf-8")
    python_floor = re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)
    numpy_floor = re.search(r'^\s*"numpy>=([\d.]+)",$', pyproject, re.M)
    jobs = re.findall(r'- python: "([^"]+)"\n\s+numpy: "([^"]+)"', workflow)
    assert (python_floor[1], f"numpy=={numpy_floor[1]}.*") in jobs
    command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    steps = re.findall(r"- name: Tier-1 tests\n\s+run: (.+)$", workflow, re.M)
    assert steps == [command[1]]


def test_a_failing_given_test_names_itself(tmp_path):
    # Under the suite's warning filters a failing @given test and a test
    # that warns both end on FAILED lines that name them: no warning
    # raised while a failure is reported ends the run in INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(
        "import warnings\n"
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers(0, 3))\n"
        "def test_given_fails(x):\n"
        "    assert x < 3\n\n\n"
        "def test_warns():\n"
        "    warnings.warn(DeprecationWarning('kernel'))\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(REPO / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    failed = re.findall(r"^FAILED \S+::(\w+)", run.stdout, re.M)
    assert sorted(failed) == ["test_given_fails", "test_warns"], output


def test_every_exported_name_is_documented():
    # The package namespace is the documented API; layer internals such
    # as `split5` or `FieldLayout` import from their own modules.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    missing = [name for name in wordcode.__all__
               if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert missing == []
    for name in wordcode.__all__:
        getattr(wordcode, name)
