"""Every private function of the package has a caller in the package.

A private function (``_name``, not a dunder) exists only for the package's
own code, so one that no other code in ``src/crystal_lab`` refers to is a
helper left behind by a deletion.  A reference is a name or an attribute
anywhere outside the function's own body; tests, demos and the benchmark
do not count.
"""

import ast
from collections import Counter
from pathlib import Path

import crystal_lab

SOURCES = sorted(Path(crystal_lab.__file__).parent.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def references(node) -> Counter:
    """The names and attribute names that occur under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_private_functions(sources: dict) -> list:
    """(file, name) of each private function defined in the sources (a
    dict of file name to text) that nothing outside its body refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    return sorted((name, node.name) for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and is_private(node.name)
                  and everywhere[node.name] == references(node)[node.name])


def test_every_private_function_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert uncalled_private_functions(sources) == []


def test_the_rule_is_reported():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "def _dead():\n    return 2\n"
                 "class C:\n"
                 "    def __init__(self):\n        self._method()\n"
                 "    def _method(self):\n        pass\n"
                 "    def _orphan(self):\n        pass\n"),
        "b.py": "from a import _used\nx = _used()\n",
    }
    assert uncalled_private_functions(sources) == [
        ("a.py", "_dead"), ("a.py", "_orphan"), ("a.py", "_recursive")]
