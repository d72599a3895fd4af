"""The public functions and methods of `immtools` and their callers, and
the names each module imports.

Each function in `immtools.__all__` is called by code in `src/immtools`,
or is listed in `NO_SRC_CALLER` with the reason it stays public, and
each one listed there still has no such caller.  A call from its own
definition, from `__init__.py`, or from another exported function that
itself has no caller does not count, so a public function reached only
from a test-only one is reported too, and neither does a local variable
that shares the function's name.  The methods and cached properties of
each exported class are checked by the same rule against
`NO_SRC_READER`; a method's code is its own definition, apart from the
rest of its class.  A read is matched by name alone, so
`Multigraph.adjacency` counts as read where `SimpleGraph.adjacency` is.
Every name a module other than `__init__.py` imports is read somewhere
in that module.
"""

import ast
import inspect
from pathlib import Path

import immtools

SRC = Path(immtools.__file__).parent

# Several of these are also looked up by name by bench/tracer.py, which
# times the calls into each layer.
NO_SRC_CALLER = {
    # queries the README documents for library callers
    "max_flow_min_cut": "README: edge connectivity, min cuts with witnesses",
    "is_k_edge_connected_set": "README: k-edge-connected-set testing",
    "adhesion": "README: tree-cut adhesion",
    "is_grounded": "README: a check a caller runs on an edge sum",
    "canonical_key": "README: canonical keys for multigraph isomorphism",
    # the definitions that the fast paths are tested against (ROADMAP item 9)
    "min_linearizing_set": "definition the decomposer's linearizing search is tested against",
    "compute_separator": "definition the decomposer's separators are tested against",
    "consolidate": "definition the split loop's contraction is tested against",
    # waiting for ROADMAP items 1 and 6
    "star_minor_to_immersion": "awaits the dichotomy's immersion side (item 6)",
    "compose_decompositions": "awaits the dichotomy's structure side (item 6)",
    "edge_disjoint_paths": "awaits failure witnesses that carry their paths (item 1)",
}


# Members of the exported classes that no code in src/immtools reads, as
# "Class.member".  bench/tracer.py times each of these in a span of its
# layer, so they stay as the definitions those spans measure (ROADMAP
# item 9).
NO_SRC_READER = {
    "Multigraph.neighbors": "a bench/tracer.py span of multigraph.query",
    "Multigraph.induced": "a bench/tracer.py span of multigraph.derive",
    "Multigraph.without_vertices": "a bench/tracer.py span of multigraph.derive",
    "Multigraph.without_edges": "a bench/tracer.py span of multigraph.derive",
    "SimpleGraph.neighbors": "a bench/tracer.py span of simplegraph.query",
    "SimpleGraph.without": "a bench/tracer.py span of simplegraph.query",
    "SimpleGraph.is_disjoint_union_of_paths":
        "a bench/tracer.py span of simplegraph.query, and its paths_tests counter",
}


def _modules():
    """(file name, syntax tree) of each module of src/immtools but `__init__.py`."""
    return [
        (path.name, ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _member_name(node):
    """The name a class-body statement defines as a member: a method's, or
    the one target of an assignment of a `cached_property(...)` call (as
    `numbering = functools.cached_property(number)`); else None."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if (
        isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).rpartition(".")[2] == "cached_property"
        and [type(t) for t in node.targets] == [ast.Name]
    ):
        return node.targets[0].id
    return None


def _definitions():
    """(owner, syntax tree) of each top-level definition of src/immtools,
    `__init__.py` aside: a function by its name, each member of a class
    (see `_member_name`) as "Class.member", the rest of a class's body by
    the class name, and module level code as None."""
    for _, tree in _modules():
        for top in tree.body:
            if not isinstance(top, ast.ClassDef):
                yield getattr(top, "name", None), top
                continue
            for node in top.body:
                member = _member_name(node)
                yield (f"{top.name}.{member}" if member else top.name), node


def _callers():
    """name -> the owners (see `_definitions`) that read that name.  A
    name that a definition binds itself, by assignment or as an argument,
    is its own variable, so reading it is not a read of the module's
    name."""
    readers = {}
    for owner, top in _definitions():
        nodes = list(ast.walk(top))
        own = {n.arg for n in nodes if isinstance(n, ast.arg)} | {
            n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
        }
        for node in nodes:
            if isinstance(node, ast.Name) and node.id not in own:
                readers.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, set()).add(owner)
    return readers


def _members():
    """The methods and cached properties that the exported classes define,
    dunder methods aside, as "Class.member" -> member."""
    classes = {n for n in immtools.__all__ if inspect.isclass(getattr(immtools, n))}
    members = {}
    for owner, _ in _definitions():
        cls, _, member = (owner or "").partition(".")
        if member and cls in classes and not member.startswith("__"):
            members[owner] = member
    return members


def _without_src_caller():
    """The exported functions, and the members of exported classes as
    "Class.member", that no code in src/immtools reads."""
    names = {n: n for n in immtools.__all__ if inspect.isfunction(getattr(immtools, n))}
    names.update(_members())
    readers = _callers()
    uncalled = set()
    while True:  # grows until no definition's readers are all uncalled
        grown = {q for q, n in names.items() if not readers.get(n, set()) - {q} - uncalled}
        if grown == uncalled:
            return uncalled
        uncalled = grown


def test_every_public_function_has_a_caller_in_src_or_a_listed_reason():
    uncalled = {n for n in _without_src_caller() if "." not in n}
    assert sorted(uncalled - NO_SRC_CALLER.keys()) == []
    assert set(NO_SRC_CALLER) <= set(immtools.__all__)


def test_every_listed_function_still_has_no_src_caller():
    assert sorted(NO_SRC_CALLER.keys() - _without_src_caller()) == []


def test_every_public_method_has_a_reader_in_src_or_a_listed_reason():
    unread = {n for n in _without_src_caller() if "." in n}
    assert sorted(unread - NO_SRC_READER.keys()) == []
    assert set(NO_SRC_READER) <= set(_members())


def test_a_cached_property_made_by_assignment_is_a_member():
    assert _members()["Multigraph.numbering"] == "numbering"


def test_every_listed_method_still_has_no_src_reader():
    assert sorted(NO_SRC_READER.keys() - _without_src_caller()) == []


def test_every_imported_name_is_read():
    unread = []
    for name, tree in _modules():
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{name}: {n}" for n in sorted(imported - read)]
    assert unread == []
