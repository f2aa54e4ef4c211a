"""Source layout rules, checked on the syntax tree of each module.

A graph's adjacency has one format, the neighbour bitmasks Graph.masks;
kernels alone unpacks them into a dense numpy matrix, for the scans, and
only in the table builder, so once per scan.

Niceness is a graph property with one owner, graphs.check_nice, called
only where a verdict or a report depends on it: verify, interpret and the
command line.  The arithmetic modules (group, kernels, formulas,
subgroup, extension, cayley) never check it.

The full-column commuting system (group.commutation_matrix with
fplinear.kernel_dim) and the full-coset enumeration
(formulas.full_coset_oracle) are oracles: they serve the cross-checks in
verify and the tests, never a verdict of the library itself.  The coset
enumeration is also independent of what it certifies: it reads
commutation off the alternating form itself, not through the commutator
or the commuting-kernel engine.

The commuting system has one row builder and one basis reader:
group.commuting_rows writes every row once, keyed by its final column, and
only group and the scans' rank tables (kernels._rank_tables) call it; only
group reads a kernel basis (fplinear.kernel_basis) off those rows.

A scan enumerates supports once: the count and the listing of violations
read the signature codes of kernels._subset_codes, and the count never
reaches the listing's walk over anchors.  The full per-anchor walk is a
test oracle only.

Both recovery pipelines run one driver, interpret._recover: it alone
samples the candidate classes and partitions them by power, so the up and
the down recovery differ only in their refusal, candidates, filter and
edge formula.

No invariant of the library rests on an assert statement, which python -O
removes.
"""

import ast
from pathlib import Path

import mekler

ORACLES = {"commutation_matrix", "kernel_dim", "full_coset_oracle"}
MAY_USE_ORACLES = {"verify.py", "__init__.py"}
MAY_CHECK_NICENESS = {"graphs.py", "verify.py", "interpret.py", "cli.py", "__init__.py"}


def name_uses(tree, wanted):
    """The wanted names a module imports or reads, by line."""
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
        found += [(node.lineno, name) for name in names if name in wanted]
    return found


def misuse_outside(wanted, allowed):
    """Per module not in allowed, its uses of the wanted names."""
    package = Path(mekler.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    misuse = {}
    for path in modules:
        if path.name in allowed:
            continue
        uses = name_uses(ast.parse(path.read_text(), filename=str(path)), wanted)
        if uses:
            misuse[path.name] = uses
    return misuse


def test_oracles_serve_only_the_cross_checks():
    assert misuse_outside(ORACLES, MAY_USE_ORACLES) == {}


def test_only_verdicts_and_reports_check_niceness():
    assert misuse_outside({"check_nice"}, MAY_CHECK_NICENESS) == {}


def test_the_rule_sees_imports_and_calls():
    tree = ast.parse("from .fplinear import kernel_dim\nfrom . import formulas\nformulas.full_coset_oracle(1)\n")
    assert name_uses(tree, ORACLES) == [(1, "kernel_dim"), (3, "full_coset_oracle")]
    assert name_uses(ast.parse("def commutation_matrix():\n    pass\n"), ORACLES) == []
    tree = ast.parse("from .graphs import check_nice\nimport mekler\nmekler.graphs.check_nice(g)\n")
    assert name_uses(tree, {"check_nice"}) == [(1, "check_nice"), (3, "check_nice")]


def references(tree, name):
    """(enclosing top-level function, line) of every use of name."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_one_row_builder_and_one_basis_reader():
    assert misuse_outside({"commuting_rows"}, {"group.py", "kernels.py"}) == {}
    path = Path(mekler.__file__).parent / "kernels.py"
    refs = references(ast.parse(path.read_text(), filename=str(path)), "commuting_rows")
    assert [fn for fn, _ in refs] == ["_rank_tables"]
    assert misuse_outside({"kernel_basis"}, {"group.py"}) == {}


def test_the_scans_code_supports_once():
    """The count and the listing read the signature codes of one helper,
    _subset_codes; the per-anchor walk _support_batches, O(n^3) for
    triples, is a test oracle that no module of the library defines or
    names."""
    package = Path(mekler.__file__).parent
    assert [path.name for path in sorted(package.rglob("*.py")) if "_support_batches" in path.read_text()] == []
    path = package / "kernels.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [fn for fn, _ in references(tree, "_subset_codes")] == ["_signature_histogram", "_violating_supports"]


def test_each_scan_unpacks_the_graph_once():
    """Inside kernels only the table builder unpacks the neighbour bitmasks,
    so a scan builds one dense matrix, whatever its support budget."""
    path = Path(mekler.__file__).parent / "kernels.py"
    refs = references(ast.parse(path.read_text(), filename=str(path)), "_adjacency_matrix")
    assert [fn for fn, _ in refs] == ["_graph_tables"]


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
    assert {"_violating_supports", "_anchored"} & names == set()


def test_the_reachability_rule_follows_helpers():
    tree = ast.parse("def f():\n    return g()\n\ndef g():\n    return m.commutator_vector\n\ndef h():\n    rref_indexed()\n")
    assert reachable_names(tree, "f") & ENGINE == {"commutator_vector"}


MAY_USE_ADJACENCY_MATRIX = {"kernels.py"}
UNPACKS_A_MATRIX = {"_adjacency_matrix", "unpackbits"}


def adjacency_uses(tree, may_use_matrix):
    """(line, name) of every read of an adjacency attribute and, unless the
    module may use it, every call that unpacks a dense adjacency matrix."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "adjacency":
            found.append((node.lineno, "adjacency"))
        elif isinstance(node, ast.Call) and not may_use_matrix:
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else fn.id if isinstance(fn, ast.Name) else None
            if name in UNPACKS_A_MATRIX:
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
    tree = ast.parse("a = g.adjacency[v]\nm = kernels._adjacency_matrix(ctx.adj)\nnp.unpackbits(rows)\nadjacency = 1\n")
    assert adjacency_uses(tree, False) == [(1, "adjacency"), (2, "_adjacency_matrix"), (3, "unpackbits")]
    assert adjacency_uses(tree, True) == [(1, "adjacency")]
    assert adjacency_uses(ast.parse("def _adjacency_matrix(masks):\n    return masks\n"), False) == []


def test_both_pipelines_share_one_recovery_driver():
    path = Path(mekler.__file__).parent / "interpret.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "_recover" in reachable_names(tree, "recover_graph_up")
    assert "_recover" in reachable_names(tree, "recover_graph_down")
    for helper in ("_sample_class", "_partition_by_power"):
        assert [fn for fn, _ in references(tree, helper)] == ["_recover"], helper
    assert misuse_outside({"_recover", "_sample_class", "_partition_by_power"}, {"interpret.py"}) == {}


def assert_lines(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_library_has_no_assert():
    package = Path(mekler.__file__).parent
    found = {
        path.relative_to(package).as_posix(): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := assert_lines(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}


def test_the_assert_rule_sees_nested_asserts():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n")
    assert assert_lines(tree) == [3]
