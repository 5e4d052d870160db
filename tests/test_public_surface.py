"""Every public entry point of qtur has a caller in src.

A name that ``qtur/__init__.py`` imports, a public method of a class it
exports, and a public module-level function of any src module must be
referenced (as a ``Name`` or an ``Attribute``) by src outside
``__init__``; what only tests reach is surface without a use.
"""

import ast
from pathlib import Path

import qtur

SRC = Path(qtur.__file__).parent

# entry points without a src caller yet, each with the reason it stays
EXEMPT = {
    "half_angle_integral": "the windowed bound's half angle, a library entry point of its own",
    "save_model": "the writing half of the model JSON schema that load_model reads",
    "PathWeights.densities_batch": "gets its caller when verify-cic checks each record's reversal",
    "rerun_row_check": "the benchmark's row audit, called from perfbench/workloads.py",
}


def _exported() -> list:
    """The names ``__init__`` imports, ``Class.method`` for each public
    method of an exported class, and every public module-level function."""
    names = []
    for node in ast.walk(ast.parse((SRC / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    entries = list(names)
    for module in sorted(SRC.glob("*.py")):
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                entries += [
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                entries.append(node.name)
    return entries


def _referenced() -> set:
    """Every name and attribute that src outside ``__init__`` reads or calls."""
    seen = set()
    for module in SRC.glob("*.py"):
        if module.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_public_entry_point_has_a_src_caller():
    referenced = _referenced()
    unused = {name for name in _exported() if name.rsplit(".", 1)[-1] not in referenced}
    assert unused - set(EXEMPT) == set(), "public names that only tests reach"
    assert set(EXEMPT) - unused == set(), "exemptions that now have a caller or are gone"
