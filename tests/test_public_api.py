"""Every name that ``stlgo/__init__.py`` exports has a user outside the test
suite: a reference (a name, or an attribute such as ``F.GraphOp``) in another
module of the package, in ``scripts/`` or in ``perfbench/``, or a mention as
code in README.md. An export that only its own tests call is dead weight in
the public API: delete it, or name its user."""

import ast
import re
from pathlib import Path

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


def readme_code_names() -> set[str]:
    """The identifiers in README.md's fenced blocks and inline code spans;
    prose words such as "neighbors" do not count."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.M | re.S)
    code += re.findall(r"`([^`\n]+)`", prose)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_the_package_exports_names():
    assert "monitor_local" in exported_names()


def test_every_export_has_a_user_outside_the_tests():
    used = referenced_names() | readme_code_names()
    assert [name for name in exported_names() if name not in used] == []
