"""Every function of the package has a user: no helper or API left behind.

A private function (``_name``, not a dunder) exists only for the package's
own code, so one that no other code in ``src/crystal_lab`` refers to is a
helper left behind by a deletion.  A public function or method (no leading
underscore) is API, so it must be referred to outside its own body in the
package, its tests or its demos; the benchmark does not count.  A reference
is a name or an attribute anywhere outside the function's own body.

The rules match names, not objects, so they cannot tell apart two
functions that share a name: a ``TruncatedSeries.truncate_degree`` that
nothing called would pass, because ``SeriesMatrix.truncate_degree`` has
callers.
"""

import ast
from collections import Counter
from pathlib import Path

import crystal_lab

SOURCES = sorted(Path(crystal_lab.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
USERS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def is_public(name: str) -> bool:
    return not name.startswith("_")


def references(node) -> Counter:
    """The names and attribute names that occur under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_functions(sources: dict, chosen, users=()) -> list:
    """(file, name) of each function defined in the sources (a dict of file
    name to text) whose name `chosen` accepts and that nothing outside its
    body refers to, in the sources or in the users (more texts, whose own
    functions are not checked)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((references(ast.parse(text))
                      for text in [*sources.values(), *users]), Counter())
    return sorted((name, node.name) for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and chosen(node.name)
                  and everywhere[node.name] == references(node)[node.name])


def test_every_private_function_has_a_caller_in_the_package():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_functions(sources, is_private) == []


def test_every_public_function_has_a_user():
    sources = {path.name: path.read_text() for path in SOURCES}
    users = [path.read_text() for path in USERS]
    assert len(users) > 5
    assert unreferenced_functions(sources, is_public, users) == []


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
    assert unreferenced_functions(sources, is_private) == [
        ("a.py", "_dead"), ("a.py", "_orphan"), ("a.py", "_recursive")]


def test_the_public_rule_is_reported():
    # a user counts wherever it is; a dunder is never checked, and an
    # import names a function without referring to it
    sources = {
        "a.py": ("def tested():\n    return 1\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "def unused():\n    return 2\n"
                 "def helper():\n    return 3\n"
                 "class C:\n"
                 "    def __str__(self):\n        return helper()\n"
                 "    def method(self):\n        pass\n"
                 "    def orphan(self):\n        pass\n"),
    }
    users = ["from a import C, tested, unused\n"
             "def test():\n    assert tested() == 1\n    C().method()\n"]
    assert unreferenced_functions(sources, is_public, users) == [
        ("a.py", "orphan"), ("a.py", "recursive"), ("a.py", "unused")]
    assert unreferenced_functions(sources, is_public) == [
        ("a.py", "method"), ("a.py", "orphan"), ("a.py", "recursive"),
        ("a.py", "tested"), ("a.py", "unused")]
