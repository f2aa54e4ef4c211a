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
only group calls it; only group reads a kernel basis
(fplinear.kernel_basis) off those rows.  The scans eliminate nothing:
kernels imports nothing from fplinear or formulas, and reads centralizer
dimensions through the closed form's components alone.

A scan codes supports once: the count and the listing of violations read
the signature codes of kernels._subset_codes, on the vertices and the
neighbourhood subsets alone.  The full per-anchor walk, the closed-form
counts of supports with no common neighbour it replaced, and the
per-element reference element_dims are test oracles only.

A scan keeps nothing between calls: the only cache in kernels is the index
combinations, keyed by a degree and a support size alone, and kernels
binds no module-level container.  A cache keyed on a graph, a context or a
functional would make a rescanned graph look fast while no command ever
rescans one.

Both recovery pipelines run one driver, interpret._recover: it alone
samples the candidate classes and partitions them by power, so the up and
the down recovery differ only in their refusal, candidates, filter and
edge formula.

No invariant of the library rests on an assert statement, which python -O
removes.

A group element has one format: GroupElement, with slots p, gen and cen,
the last two plain dicts.  No other class holds gen or cen slots, fplinear
defines no class (a vector is a dict), and no module reads the _entries or
calls the from_reduced of a vector wrapper.

Every public name has a reader.  Each public top-level function and class
of a library module, and each public method of such a class, is read by
some library module other than at its own definition: as a name, an
attribute or a from-import.  The package __init__ neither counts as a
reader, since its re-exports read every name, nor is checked.  A name
without a reader is a key of PUBLIC_WITHOUT_READER, whose value says why
it stays; a listed name that gains a reader or is gone fails the rule too,
so the list never outlives its reasons.
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
    assert misuse_outside({"commuting_rows"}, {"group.py"}) == {}
    assert misuse_outside({"kernel_basis"}, {"group.py"}) == {}


def imported_modules(tree):
    """(line, module) of every import in tree, relative ones without their
    leading dots, and the last part of every imported name's module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found.append((node.lineno, (node.module or "").rpartition(".")[2]))
            if not node.module:  # from . import fplinear
                found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.rpartition(".")[2]) for alias in node.names]
    return found


def test_the_scans_eliminate_nothing():
    """kernels imports nothing from fplinear or formulas: no eliminator, no
    row builder and no budget error reaches the scans."""
    path = Path(mekler.__file__).parent / "kernels.py"
    modules = imported_modules(ast.parse(path.read_text(), filename=str(path)))
    assert [(line, m) for line, m in modules if m in {"fplinear", "formulas"}] == []
    assert {"group", "subgroup"} <= {m for _, m in modules}  # the rule sees the imports there are


def test_the_import_rule_sees_every_form():
    tree = ast.parse("from .fplinear import rref_indexed\nfrom . import formulas\nimport mekler.fplinear\nfrom .group import mul\n")
    assert imported_modules(tree) == [(1, "fplinear"), (2, ""), (2, "formulas"), (3, "fplinear"), (4, "group")]


ONLY_IN_THE_TESTS = {
    "_support_batches",
    "_signature_histogram",
    "_t0_patterns",
    "_edge_triples",
    "_triple_patterns",
    "TRIPLE_PATTERN",
    "_anchored",
    "_violating_supports",
    "element_dims",
}


def test_the_scans_code_supports_once():
    """Only _subset_codes computes signature codes, and it is what the scan
    reads; the scan tables hold no triangles, and no module of the library
    defines or names the per-anchor walk, the t = 0 pattern counts or
    element_dims."""
    package = Path(mekler.__file__).parent
    path = package / "kernels.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [fn for fn, _ in references(tree, "_signatures")] == ["_subset_codes"]
    assert [fn for fn, _ in references(tree, "_subset_codes")] == ["_scan_arrays"]
    assert name_uses(tree, {"triangles"}) == []  # the scan tables keep none
    found = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = [(node.lineno, node.name) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in ONLY_IN_THE_TESTS]
        if uses := sorted(defined + name_uses(tree, ONLY_IN_THE_TESTS)):
            found[path.name] = uses
    assert found == {}


def test_each_scan_unpacks_the_graph_once():
    """Inside kernels only the table builder unpacks the neighbour bitmasks,
    so a scan builds one dense matrix, whatever its support budget."""
    path = Path(mekler.__file__).parent / "kernels.py"
    refs = references(ast.parse(path.read_text(), filename=str(path)), "_adjacency_matrix")
    assert [fn for fn, _ in refs] == ["_graph_tables"]


def test_the_reference_rule_sees_calls_and_attributes():
    tree = ast.parse("def f():\n    g(1)\n\ndef h():\n    return m.g\n\nx = g\n")
    assert references(tree, "g") == [("f", 2), ("h", 5), (None, 7)]


ENGINE = {"commutator_vector", "commuting_rows", "commuting_kernel_basis", "centralizer_dim", "nonadjacency_components", "rref_indexed"}


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
    """The scan's count codes supports through _subset_codes and reaches no
    per-anchor walk or t = 0 pattern count."""
    path = Path(mekler.__file__).parent / "kernels.py"
    names = reachable_names(ast.parse(path.read_text(), filename=str(path)), "_scan_arrays")
    assert {"_subset_codes", "_signatures", "_verdict"} <= names
    assert ONLY_IN_THE_TESTS & names == set()


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


CACHES = {"cache", "lru_cache", "cached_property"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque", "WeakKeyDictionary", "WeakValueDictionary", "WeakSet"}


def cached_functions(tree):
    """Per function under functools.cache, lru_cache or cached_property, at
    any depth, the annotation of each of its parameters."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            fn = dec.func if isinstance(dec, ast.Call) else dec
            if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) in CACHES:
                found[node.name] = [ast.unparse(arg.annotation) if arg.annotation else None for arg in node.args.args]
    return found


def module_containers(tree):
    """(line, target) of every module-level binding of a mutable container:
    a dict, list or set display or comprehension, or a call that makes one."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        fn = value.func if isinstance(value, ast.Call) else None
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if isinstance(value, CONTAINERS) or name in CONTAINER_CALLS:
            found += [(node.lineno, ast.unparse(target)) for target in targets]
    return found


def test_scans_keep_no_state_between_calls():
    """The only cache in kernels is the index combinations, keyed by
    integers alone, and kernels binds no module-level dict, list, set or
    weak mapping."""
    path = Path(mekler.__file__).parent / "kernels.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert cached_functions(tree) == {"_combinations": ["int", "int"]}
    assert module_containers(tree) == []


def test_the_state_rule_sees_caches_and_containers():
    source = (
        "import functools, weakref\n"
        "TABLES = weakref.WeakKeyDictionary()\n"
        "SEEN: dict = {}\n"
        "ORDER = [1, 2]\n"
        "KINDS = (1, 2)\n"
        "@functools.cache\n"
        "def _graph_tables(graph: Graph, max_support: int):\n"
        "    pass\n"
        "class C:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def m(self, x):\n"
        "        pass\n"
        "@cache\n"
        "def _rank_tables(p: int, size: int):\n"
        "    pass\n"
    )
    tree = ast.parse(source)
    assert cached_functions(tree) == {"_graph_tables": ["Graph", "int"], "m": [None, None], "_rank_tables": ["int", "int"]}
    assert module_containers(tree) == [(2, "TABLES"), (3, "SEEN"), (4, "ORDER")]


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


def slotted_classes(tree, wanted):
    """The classes of tree whose __slots__ name any of the wanted attributes."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                slots = {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
                if slots & wanted:
                    found.append(node.name)
    return found


def element_format_breaches(modules):
    """Per module (file name to syntax tree), what breaks the one element
    format: reads of a vector wrapper's internals, a class in fplinear, and
    a class other than GroupElement with gen or cen slots."""
    breaches = {}
    for name, tree in modules.items():
        found = [f"reads {n} at line {line}" for line, n in sorted(name_uses(tree, {"_entries", "from_reduced"}))]
        if name == "fplinear.py":
            found += [f"defines class {node.name}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        found += [f"slots gen/cen in {cls}" for cls in slotted_classes(tree, {"gen", "cen"}) if (name, cls) != ("group.py", "GroupElement")]
        if found:
            breaches[name] = found
    return breaches


def test_one_element_format():
    package = Path(mekler.__file__).parent
    modules = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    assert len(modules) > 5
    assert slotted_classes(modules["group.py"], {"gen", "cen"}) == ["GroupElement"]
    assert element_format_breaches(modules) == {}


def test_the_format_rule_sees_wrappers_classes_and_slots():
    wrapper = (
        "class FpVector:\n"
        "    __slots__ = ('p', '_entries')\n"
        "    @classmethod\n"
        "    def from_reduced(cls, p, entries):\n"
        "        return cls(p, entries)\n"
    )
    modules = {
        "fplinear.py": ast.parse(wrapper),
        "group.py": ast.parse("class GroupElement:\n    __slots__ = ('p', 'gen', 'cen')\n\nclass Coset:\n    __slots__ = ['gen']\n"),
        "formulas.py": ast.parse("from .fplinear import FpVector\nFpVector.from_reduced(3, {}).x\ny = a.gen._entries\n"),
    }
    assert element_format_breaches(modules) == {
        "fplinear.py": ["defines class FpVector"],
        "group.py": ["slots gen/cen in Coset"],
        "formulas.py": ["reads from_reduced at line 2", "reads _entries at line 3"],
    }


PUBLIC_WITHOUT_READER = {
    "covering_report": "the perfbench harness calls it; it moves with ROADMAP item 2",
    "format_cayley_text": "it writes the plain table form that the one-pass reader is tested against",
    "central_generator": "the validated constructor at the boundary, which the tests' expected sides use",
    "parse_element": "ROADMAP item 8 gives it a caller",
    "ScanResult.listing_cut": "the README documents it",
}


def reads(tree, name, skip=None):
    """Whether tree reads name as a name, an attribute or a from-import,
    outside the subtree skip."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == name for alias in node.names):
                return True
        elif (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
            return True
    return False


def unread_public_names(modules):
    """The public names of the modules (file name to syntax tree), but
    __init__, that no module but __init__ reads outside their definition,
    sorted; a method as Class.method."""
    readers = {name: tree for name, tree in modules.items() if name != "__init__.py"}
    unread = []
    for module, tree in readers.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            defs = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                methods = [node for node in top.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
                defs += [(f"{top.name}.{node.name}", node) for node in methods]
            for qual, node in defs:
                name = qual.rpartition(".")[2]
                if not any(reads(other, name, node if where == module else None) for where, other in readers.items()):
                    unread.append(qual)
    return sorted(unread)


def test_every_public_name_has_a_reader():
    package = Path(mekler.__file__).parent
    modules = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    assert len(modules) > 5
    assert unread_public_names(modules) == sorted(PUBLIC_WITHOUT_READER)


def test_the_reader_rule_sees_imports_attributes_and_own_reads():
    source = (
        "def f(n):\n"
        "    return f(n - 1)\n"
        "class C:\n"
        "    def m(self):\n"
        "        pass\n"
        "    def u(self):\n"
        "        return self.u\n"
        "    def _h(self):\n"
        "        pass\n"
        "def g():\n"
        "    pass\n"
        "def _k():\n"
        "    pass\n"
    )
    modules = {
        "a.py": ast.parse(source),
        "b.py": ast.parse("from .a import g\nx.m()\n"),
        "__init__.py": ast.parse("from .a import f, C\ndef exported():\n    pass\n"),
    }
    assert unread_public_names(modules) == ["C", "C.u", "f"]
    modules["b.py"] = ast.parse("from .a import g, C\nC().u\nf\n")
    assert unread_public_names(modules) == ["C.m"]
