"""The public surface of operaq is what the library and the demos use.

Every public top-level function or class of src/operaq must be referenced
outside its own definition somewhere in src/operaq or demos/, so a
function that only tests reach is deleted rather than kept as surface.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "operaq").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# public names kept although only tests call them
TEST_VOCABULARY = {
    "identity_channel": "the identity channel is the baseline of many channel tests",
    "kron_all": "tests build multi-factor products and states with it",
    "random_density": "tests draw the random states they apply maps to with it",
    "encode_interpretation": "tests write the interpretation inputs of CLI commands with it",
    "encode_ideal_spec": "tests write the ideal inputs of CLI commands with it",
    "encode_feedback_problem": "tests write the feedback inputs of CLI commands with it",
}


def _references(node) -> Counter:
    """How often each name is used in node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + DEMOS]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    public, unused = set(), []
    for path, tree in zip(PACKAGE, trees):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public.add(node.name)
            if node.name in TEST_VOCABULARY:
                continue
            if everywhere[node.name] == _references(node)[node.name]:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
    assert set(TEST_VOCABULARY) <= public
