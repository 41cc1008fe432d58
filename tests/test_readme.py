"""README's "Tolerances" table against the package's named constants."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tolerance_rows() -> set:
    """(name, module) of each table row."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.M))


def module_constants() -> set:
    """(name, module) of each upper-case name a module assigns at its top level."""
    found = set()
    for path in (ROOT / "src" / "hypervoronoi").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                found |= {
                    (t.id, path.stem) for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()
                }
    return found


def test_every_tolerance_row_names_a_constant_of_its_module():
    rows = tolerance_rows()
    assert len(rows) > 10
    assert rows <= module_constants()


def test_every_named_tolerance_has_a_row():
    tolerances = {(name, module) for name, module in module_constants() if name.endswith("_TOL")}
    assert tolerances <= tolerance_rows()
