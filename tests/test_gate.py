"""The acceptance gate stays whole: `test_acceptance.py` holds criteria 01 to
11 in order, each reporting its own number, and no oracle of its own."""

import ast
import re
from pathlib import Path

GATE = Path(__file__).with_name("test_acceptance.py")


def test_the_gate_holds_criteria_01_to_11_each_reporting_its_number():
    functions = [
        node for node in ast.parse(GATE.read_text()).body if isinstance(node, ast.FunctionDef)
    ]
    numbers = []
    for function in functions:
        if not function.name.startswith("test_"):
            continue
        match = re.fullmatch(r"test_criterion_(\d\d)_\w+", function.name)
        assert match, "%s is not a criterion" % function.name
        reported = [
            getattr(call.args[0], "value", None)
            for call in ast.walk(function)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_report"
        ]
        assert reported == [int(match[1])], "%s reports %s" % (function.name, reported)
        numbers.append(int(match[1]))
    assert numbers == list(range(1, 12))
    # the oracles are imported from the unit modules, so each has one copy
    helpers = {f.name for f in functions if not f.name.startswith("test_")}
    assert helpers == {"_report", "_region"}
