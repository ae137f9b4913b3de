"""Every name that ``stlgo/__init__.py`` exports has a user outside the test
suite: a reference (a name, or an attribute such as ``F.GraphOp``) in another
module of the package, in ``scripts/`` or in ``perfbench/``, or a mention as
code in README.md. An export that only its own tests call is dead weight in
the public API: delete it, or name its user. The same holds for every public
module-level function and class of the package, exported or not.

Likewise every defaulted parameter of a public function or method, and every
defaulted init field of a public dataclass, is set by some call outside the
test suite: in the package, ``scripts/``, ``perfbench/`` or a Python block of
README.md. A setting that only tests set is a configuration nothing runs.
So is a CLI option that only tests pass: each appears in README.md's code,
in CI's workflow, in ``perfbench/`` or in ``scripts/``."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

from stlgo.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stlgo"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def referenced_names() -> set[str]:
    """Every name and attribute read in the package's other modules and in
    the scripts and benchmark."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    out = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def readme_code() -> list[str]:
    """README.md's fenced blocks and inline code spans; prose words such as
    "neighbors" are not code."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.M | re.S)
    return code + re.findall(r"`([^`\n]+)`", prose)


def readme_code_names() -> set[str]:
    """The identifiers in README.md's code."""
    return {name for span in readme_code() for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_the_package_exports_names():
    assert "monitor_local" in exported_names()


def test_every_export_has_a_user_outside_the_tests():
    used = referenced_names() | readme_code_names()
    assert [name for name in exported_names() if name not in used] == []


def public_definitions() -> list[tuple[str, str]]:
    """(module, name) for each public function and class that a module of
    the package defines at its top level."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"stlgo.{path.stem}")
        out += [(path.stem, name) for name, obj in vars(module).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__]
    return out


def test_the_definition_scan_finds_functions_and_classes():
    found = set(public_definitions())
    assert {("central", "monitor_local"), ("central", "Cells"), ("formula", "nodes")} <= found


def test_every_public_definition_has_a_user_outside_the_tests():
    """A module-level function or class that only tests reference is dead
    code whether or not ``__init__`` exports it: move it into the tests, or
    name its user. Users are counted as for exports."""
    used = referenced_names() | readme_code_names()
    assert [f"{module}.{name}" for module, name in public_definitions()
            if name not in used] == []


# -- options -------------------------------------------------------------------


def readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def calls_outside_the_tests() -> list[ast.Call]:
    """Every call in the package, the scripts, the benchmark and README.md's
    Python blocks."""
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").rglob("*.py"),
                       *(ROOT / "perfbench").rglob("*.py")]]
    trees += [ast.parse(block) for block in readme_python_blocks()]
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _sets(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether a call sets the parameter at this positional index (None for
    a keyword-only one) and of this name."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def public_options() -> list[tuple[str, str, int | None, str]]:
    """(label, called name, positional index, parameter) for each defaulted
    parameter of a public function or method of the package and each
    defaulted init field of its public dataclasses. A method's index leaves
    out ``self`` and ``cls``, as a call through an instance or class does."""
    out = []

    def add(label, called, fn, bound):
        params = list(inspect.signature(fn).parameters.values())[1 if bound else 0:]
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty or p.kind in (p.VAR_POSITIONAL,
                                                                  p.VAR_KEYWORD):
                continue
            index = None if p.kind is p.KEYWORD_ONLY else i
            out.append((f"{label}({p.name})", called, index, p.name))

    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"stlgo.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                add(f"{path.stem}.{name}", name, obj, False)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    add(f"{path.stem}.{name}", name, obj, False)
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    label = f"{path.stem}.{name}.{attr}"
                    if isinstance(member, staticmethod):
                        add(label, attr, member.__func__, False)
                    elif isinstance(member, classmethod):
                        add(label, attr, member.__func__, True)
                    elif inspect.isfunction(member):
                        add(label, attr, member, True)
    return out


def test_the_option_scan_finds_defaulted_parameters():
    labels = {label for label, *_ in public_options()}
    assert "central.monitor_global(strict)" in labels
    assert "scenario.DroneScenarioConfig(horizon)" in labels


def test_every_option_has_a_caller_outside_the_tests():
    """A defaulted parameter that no caller outside the tests sets is a
    configuration nothing runs: make it the one value in use, or name the
    caller. A call sets a parameter by keyword, by a positional argument at
    or past its index, or through ``*args`` or ``**kwargs``; calls are
    matched by name."""
    by_name: dict[str, list[ast.Call]] = {}
    for call in calls_outside_the_tests():
        by_name.setdefault(_called_name(call), []).append(call)
    unset = [label for label, called, index, name in public_options()
             if not any(_sets(call, index, name) for call in by_name.get(called, ()))]
    assert unset == []


def cli_options() -> list[tuple[str, str]]:
    """(subcommand, option) for each ``--option`` of each subcommand of the
    CLI."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(command, option) for command, parser in subparsers.choices.items()
            for action in parser._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"]


def test_the_cli_option_scan_finds_options():
    options = set(cli_options())
    assert {("monitor", "--strict-horizon"), ("translate", "--n-prime"),
            ("gen", "--out-run")} <= options


def test_every_cli_option_has_a_user_outside_the_tests():
    """A CLI option that only tests pass is a knob nothing turns: retire it,
    or show it in use. An option is in use when it appears in README.md's
    code, in CI's workflow, or in a file of ``perfbench/`` or ``scripts/``;
    as for parameters, options are matched by name, not by subcommand."""
    texts = readme_code() + [(ROOT / ".github" / "workflows" / "tests.yml").read_text(
        encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8")
              for p in [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]]
    unused = [f"{command} {option}" for command, option in cli_options()
              if not any(re.search(rf"{re.escape(option)}(?![\w-])", text) for text in texts)]
    assert unused == []
