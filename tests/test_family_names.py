"""All knowledge about one trajectory family lives in the kinematics table.

The correlator and response layers read every geometric fact off the
table's rows, and the validity rule and the closed forms hold for every
family alike, so their code compares no family name. The one exception is
the bath: the thermal state is a property of the field, not of a worldline,
and two functions choose the thermal correlators over the vacuum ones by the
family's name.
"""

import ast
import inspect

import pytest

import udwsim.closed_form
import udwsim.correlators
import udwsim.response
import udwsim.validity
from udwsim.kinematics import FAMILIES

BATH_SWITCH = {("scenario_correlator", "ThermalInertialPair"),
               ("wightman_schlicht", "ThermalInertialPair")}


def family_literals(source: str):
    """(enclosing function, name, line) of every string literal in the code
    that is a family name; docstrings are skipped."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in FAMILIES and id(node) not in docstrings):
            found.append((func, node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_guard_finds_family_comparisons():
    source = ('def f(sc):\n'
              '    """Parallel only."""\n'
              '    return sc.family in ("Parallel", "Differing")\n')
    assert family_literals(source) == [("f", "Parallel", 3), ("f", "Differing", 3)]


@pytest.mark.parametrize(
    "module",
    [udwsim.correlators, udwsim.response, udwsim.validity, udwsim.closed_form],
    ids=["correlators", "response", "validity", "closed_form"])
def test_no_family_name_outside_the_bath_switch(module):
    found = family_literals(inspect.getsource(module))
    assert [f for f in found if f[:2] not in BATH_SWITCH] == []
