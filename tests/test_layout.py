"""Source layout rules, checked on the syntax tree of each module.

A graph's adjacency has one format, the neighbour bitmasks Graph.masks;
the numpy adjacency matrix is derived from it for the niceness check and
the scans alone.

The full-column commuting system (group.commutation_matrix with
fplinear.kernel_dim) and the full-coset enumeration
(formulas.full_coset_oracle) are oracles: they serve the cross-checks in
verify and the tests, never a verdict of the library itself.  The coset
enumeration is also independent of what it certifies: it reads
commutation off the alternating form itself, not through the commutator
or the commuting-kernel engine.
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


def references(tree, name):
    """(enclosing top-level function, line) of every use of name."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_the_anchor_walk_only_lists_violations():
    """The per-anchor support walk is O(n^3) for triples; the scans count
    signatures without it and call it only to list violating supports."""
    package = Path(mekler.__file__).parent
    calls = {
        path.name: refs
        for path in sorted(package.glob("*.py"))
        if (refs := references(ast.parse(path.read_text(), filename=str(path)), "_support_batches"))
    }
    assert list(calls) == ["kernels.py"]
    assert [fn for fn, _ in calls["kernels.py"]] == ["_scan_arrays"]


def test_the_reference_rule_sees_calls_and_attributes():
    tree = ast.parse("def f():\n    g(1)\n\ndef h():\n    return m.g\n\nx = g\n")
    assert references(tree, "g") == [("f", 2), ("h", 5), (None, 7)]


ENGINE = {"commutator_vector", "commuting_rows", "commuting_kernel_dim", "commuting_kernel_basis", "rref_indexed"}


def reachable_names(tree, root):
    """Every name read by the top-level function root and by the module's
    own top-level functions it reaches."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo, names = set(), [root], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                names.add(name)
                if name in functions:
                    todo.append(name)
    return names


def test_the_coset_oracle_shares_no_code_with_the_engine():
    path = Path(mekler.__file__).parent / "formulas.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = reachable_names(tree, "full_coset_oracle")
    assert "_coset_blocks" in names
    assert names & ENGINE == set()


def test_the_count_never_falls_back_to_the_walk():
    path = Path(mekler.__file__).parent / "kernels.py"
    names = reachable_names(ast.parse(path.read_text(), filename=str(path)), "_signature_histogram")
    assert {"_t0_patterns", "_edge_triples", "_signatures"} <= names
    assert "_support_batches" not in names


def test_the_reachability_rule_follows_helpers():
    tree = ast.parse("def f():\n    return g()\n\ndef g():\n    return m.commutator_vector\n\ndef h():\n    rref_indexed()\n")
    assert reachable_names(tree, "f") & ENGINE == {"commutator_vector"}


MAY_USE_ADJACENCY_MATRIX = {"graphs.py", "kernels.py"}


def adjacency_uses(tree, may_use_matrix):
    """(line, name) of every read of an adjacency attribute and, unless the
    module may use it, every call of adjacency_matrix."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "adjacency":
            found.append((node.lineno, "adjacency"))
        elif isinstance(node, ast.Call) and not may_use_matrix:
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else fn.id if isinstance(fn, ast.Name) else None
            if name == "adjacency_matrix":
                found.append((node.lineno, name))
    return sorted(found)


def test_the_neighbour_bitmasks_are_the_only_adjacency():
    package = Path(mekler.__file__).parent
    misuse = {}
    for path in sorted(package.glob("*.py")):
        uses = adjacency_uses(ast.parse(path.read_text(), filename=str(path)), path.name in MAY_USE_ADJACENCY_MATRIX)
        if uses:
            misuse[path.name] = uses
    assert misuse == {}


def test_the_adjacency_rule_sees_reads_and_calls():
    tree = ast.parse("a = g.adjacency[v]\nm = g.adjacency_matrix()\nadjacency_matrix(g)\nadjacency = 1\n")
    assert adjacency_uses(tree, False) == [(1, "adjacency"), (2, "adjacency_matrix"), (3, "adjacency_matrix")]
    assert adjacency_uses(tree, True) == [(1, "adjacency")]
    assert adjacency_uses(ast.parse("def adjacency_matrix(self):\n    return self.masks\n"), False) == []
