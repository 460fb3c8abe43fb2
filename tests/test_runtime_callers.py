"""Every top-level function, class and assigned name of the package, public
or private (a dunder such as `__version__` aside), has a runtime caller:
code in `src/retouchkit/*.py` outside its own definition, or in
`perfbench/*.py` other than its test modules, loads its name as a variable
or an attribute. A docstring, a comment, a string, an import or a
dataclass field of the same name is no caller. Code that only tests call
is deleted, unless the allow-list below names a reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "retouchkit"

# kept without a runtime caller; a name here that gains one fails too
ALLOWED = {
    "lora_delta": "the low-rank adapter update of acceptance criterion 05",
    "reconcile_majority": "the majority-vote reconciliation of acceptance criterion 07",
    "run_batch": "the order-preserving batch of acceptance criterion 09",
}


def loaded_names(tree, skip=None):
    """The names that code in `tree`, outside the node `skip`, loads as a
    variable or an attribute."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined_names(node):
    """The names a top-level statement defines: a def's or a class's name,
    or the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def names_without_a_runtime_caller(package, benchmark):
    """The top-level defs, classes and assigned names, public or private, of
    the `package` sources that no code in another package source, in
    `benchmark` or in their own module outside their definition loads."""
    trees = [ast.parse(text) for text in package]
    loaded = [loaded_names(tree) for tree in trees]
    outside = set().union(*(loaded_names(ast.parse(text)) for text in benchmark))
    uncalled = set()
    for i, tree in enumerate(trees):
        others = outside.union(*(names for j, names in enumerate(loaded) if j != i))
        for node in tree.body:
            for name in defined_names(node):
                # a dunder such as __version__ is read by tools, not code
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in others | loaded_names(tree, skip=node):
                    uncalled.add(name)
    return uncalled


def test_only_the_allow_list_lacks_a_runtime_caller():
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    benchmark = [
        path.read_text()
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert names_without_a_runtime_caller(package, benchmark) == set(ALLOWED)


def test_a_name_only_prose_or_a_field_mentions_has_no_runtime_caller():
    package = [
        'def kept():\n    return 1\n\n\ndef prose():\n    """Calls prose() again."""\n',
        (
            '"""Mentions prose() in a docstring."""\n'
            "from a import kept, prose\n\n\n"
            "class Report:\n    prose: float  # prose()\n\n\n"
            '_LABEL = "prose"\n_VALUE = kept()\n'
        ),
    ]
    assert names_without_a_runtime_caller(package, ['"""Calls prose()."""\n']) == {
        "Report",
        "prose",
        "_LABEL",
        "_VALUE",
    }


def test_a_constant_only_a_test_reads_has_no_runtime_caller():
    package = [
        'LIMIT = 3\nRATIO: float = 0.5\nUNREAD = {}\n_PRIVATE = 1\n__version__ = "1"\n',
        "from a import LIMIT, RATIO\n\n\ndef clamp(x):\n    return min(x, LIMIT)\n\n\nclamp(RATIO)\n",
    ]
    assert names_without_a_runtime_caller(package, []) == {"UNREAD", "_PRIVATE"}
