"""The public functions of `immtools` and their callers, and the names
each module imports.

Each function in `immtools.__all__` is called by code in `src/immtools`,
or is listed in `NO_SRC_CALLER` with the reason it stays public, and
each one listed there still has no such caller.  A call from its own
definition, from `__init__.py`, or from another exported function that
itself has no caller does not count, so a public function reached only
from a test-only one is reported too.  Every name a module other than
`__init__.py` imports is read somewhere in that module.
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
    "boundedness": "definition the decomposer's sweep is tested against",
    "consolidate": "definition the split loop's contraction is tested against",
    # waiting for ROADMAP items 1 and 6
    "star_minor_to_immersion": "awaits the dichotomy's immersion side (item 6)",
    "compose_decompositions": "awaits the dichotomy's structure side (item 6)",
    "edge_disjoint_paths": "awaits failure witnesses that carry their paths (item 1)",
}


def _modules():
    """(file name, syntax tree) of each module of src/immtools but `__init__.py`."""
    return [
        (path.name, ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _callers():
    """name -> the top-level definitions (None for module level code) of
    src/immtools, `__init__.py` aside, that read that name."""
    readers = {}
    for _, tree in _modules():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    return readers


def _without_src_caller():
    functions = [n for n in immtools.__all__ if inspect.isfunction(getattr(immtools, n))]
    readers = _callers()
    uncalled = set()
    while True:  # grows until no function's callers are all uncalled
        grown = {n for n in functions if not readers.get(n, set()) - {n} - uncalled}
        if grown == uncalled:
            return uncalled
        uncalled = grown


def test_every_public_function_has_a_caller_in_src_or_a_listed_reason():
    uncalled = _without_src_caller()
    assert sorted(uncalled - NO_SRC_CALLER.keys()) == []
    assert set(NO_SRC_CALLER) <= set(immtools.__all__)


def test_every_listed_function_still_has_no_src_caller():
    assert sorted(NO_SRC_CALLER.keys() - _without_src_caller()) == []


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
