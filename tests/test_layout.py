"""Source layout rules, checked on the syntax tree of each module.

The full-column commuting system (group.commutation_matrix with
fplinear.kernel_dim) and the full-coset enumeration
(formulas.full_coset_oracle) are oracles: they serve the cross-checks in
verify and the tests, never a verdict of the library itself.
"""

import ast
from pathlib import Path

import mekler

ORACLES = {"commutation_matrix", "kernel_dim", "full_coset_oracle"}
MAY_USE_ORACLES = {"verify.py", "__init__.py"}


def oracle_uses(tree):
    """Oracle names a module imports or reads, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ORACLES]
    return found


def test_oracles_serve_only_the_cross_checks():
    package = Path(mekler.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    misuse = {}
    for path in modules:
        if path.name in MAY_USE_ORACLES:
            continue
        uses = oracle_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            misuse[path.name] = uses
    assert misuse == {}


def test_the_rule_sees_imports_and_calls():
    tree = ast.parse("from .fplinear import kernel_dim\nfrom . import formulas\nformulas.full_coset_oracle(1)\n")
    assert oracle_uses(tree) == [(1, "kernel_dim"), (3, "full_coset_oracle")]
    assert oracle_uses(ast.parse("def commutation_matrix():\n    pass\n")) == []
