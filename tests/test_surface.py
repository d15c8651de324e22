"""The public surface of operaq is what the library and the demos use.

Every public top-level function or class of src/operaq must be referenced
outside its own definition somewhere in src/operaq or demos/, so a
function that only tests reach is deleted rather than kept as surface.
Likewise every defaulted parameter of a public function must be passed by
some call in src/operaq or demos/, so a knob that only tests turn is made
a constant rather than kept as surface.
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


# defaulted parameters kept although no call in src/operaq or demos/ sets them
UNSET_DEFAULTS = {
    "main.argv": "the console script calls main() and the benchmark calls main(argv)",
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


def _defaulted(fn: ast.FunctionDef) -> list:
    """(position or None, name) of each parameter with a default; keyword-only
    parameters have no position."""
    params = fn.args.posonlyargs + fn.args.args
    first = len(params) - len(fn.args.defaults)
    out = [(i, p.arg) for i, p in enumerate(params) if i >= first]
    out += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def test_every_defaulted_parameter_is_set_by_some_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + DEMOS]
    positional, keywords = Counter(), set()  # most positional args per callee; (callee, keyword)
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positional[name] = max(positional[name], 10**6 if starred else len(call.args))
            keywords |= {(name, kw.arg) for kw in call.keywords}
    unset = []
    for path, tree in zip(PACKAGE, trees):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            for pos, param in _defaulted(fn):
                if (fn.name, None) in keywords or (fn.name, param) in keywords:
                    continue
                if pos is not None and positional[fn.name] > pos:
                    continue
                if f"{fn.name}.{param}" not in UNSET_DEFAULTS:
                    unset.append(f"{path.stem}.{fn.name}({param})")
    assert unset == []
