"""Every function of the package has a user: no helper or API left behind.

A private function (``_name``, not a dunder) exists only for the package's
own code, so one that no other code in ``src/crystal_lab`` refers to is a
helper left behind by a deletion.  A public function or method (no leading
underscore) is API, so it must be referred to outside its own body in the
package, its tests or its demos; the benchmark does not count.  A reference
is a name or an attribute anywhere outside the function's own body.

A ``functools.cache`` or ``lru_cache`` is one table for the life of the
process, so one on a function with parameters must have a finite
``maxsize``: data that belongs to one object lives on that object (as an
``ExtensionContext`` owns its crystals and block maps) and goes with it.

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


def is_unbounded_memo(decorator) -> bool:
    """Whether the decorator is functools' cache, or an lru_cache whose
    maxsize is None (a bare or empty ``lru_cache`` keeps 128 entries)."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = decorator.func if call else decorator
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name != "lru_cache" or call is None:
        return name == "cache"
    sizes = [*call.args[:1], *(k.value for k in call.keywords
                               if k.arg == "maxsize")]
    return any(isinstance(size, ast.Constant) and size.value is None
               for size in sizes)


def unbounded_memos(sources: dict) -> list:
    """(file, name) of each function with parameters in the sources (a dict
    of file name to text) under a memo decorator with no finite maxsize."""
    return sorted((name, node.name) for name, text in sources.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any((node.args.posonlyargs, node.args.args,
                           node.args.vararg, node.args.kwonlyargs,
                           node.args.kwarg))
                  and any(map(is_unbounded_memo, node.decorator_list)))


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


def test_every_memo_on_arguments_is_bounded():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unbounded_memos(sources) == []


def test_the_memo_rule_is_reported():
    # functools' cache and an lru_cache of maxsize None are reported on a
    # function or method with parameters; a finite or default maxsize, and
    # a memo of a function without parameters, pass
    sources = {
        "a.py": ("import functools\nfrom functools import cache, lru_cache\n"
                 "@lru_cache(maxsize=None)\ndef _unbounded(x):\n    return x\n"
                 "@functools.lru_cache(None)\ndef _positional(x):\n"
                 "    return x\n"
                 "@functools.cache\ndef _cached(*, x):\n    return x\n"
                 "@cache\ndef _varargs(*args):\n    return args\n"
                 "@functools.cache\ndef build():\n    return 1\n"
                 "@lru_cache(maxsize=64)\ndef _bounded(x):\n    return x\n"
                 "@lru_cache\ndef _default(x):\n    return x\n"
                 "@functools.lru_cache()\ndef _empty(x):\n    return x\n"
                 "@functools.lru_cache(4)\ndef _small(x):\n    return x\n"
                 "class C:\n"
                 "    @cache\n    def method(self):\n        pass\n"
                 "    @functools.cached_property\n"
                 "    def owned(self):\n        return 1\n"),
    }
    assert unbounded_memos(sources) == [
        ("a.py", "_cached"), ("a.py", "_positional"), ("a.py", "_unbounded"),
        ("a.py", "_varargs"), ("a.py", "method")]
