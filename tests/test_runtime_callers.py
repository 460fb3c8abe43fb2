"""Every public top-level function and class of the package has a runtime
caller: its name occurs as a word in `src/retouchkit/*.py` outside its own
definition, or in `perfbench/*.py` other than its test modules. Code that
only tests call is deleted, unless the allow-list below names a reason."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "retouchkit"

# kept without a runtime caller; a name here that gains one fails too
ALLOWED = {
    "hybrid_loss_gradient": "the hybrid-loss gradient of acceptance criterion 03",
    "lora_delta": "the low-rank adapter update of acceptance criterion 05",
    "reconcile_majority": "the majority-vote reconciliation of acceptance criterion 07",
    "compose_reward": "the paper's reward for the reasoning agent",
}


def public_definitions(text):
    """(name, first line, last line) of each public top-level def and class."""
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, first, node.end_lineno


def names_without_a_runtime_caller():
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    benchmark = [
        path.read_text()
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    uncalled = set()
    for path, text in sources.items():
        lines = text.splitlines()
        others = benchmark + [other for p, other in sources.items() if p != path]
        for name, first, last in public_definitions(text):
            outside = "\n".join(lines[: first - 1] + lines[last:])
            word = re.compile(r"\b%s\b" % re.escape(name))
            if not any(word.search(t) for t in others + [outside]):
                uncalled.add(name)
    return uncalled


def test_only_the_allow_list_lacks_a_runtime_caller():
    assert names_without_a_runtime_caller() == set(ALLOWED)
