"""The package keeps one process-wide cache: `wavelets._CACHE`.

Every other module-level container is a constant table, and nothing is
memoized with `functools.cache` or `lru_cache`. State that a computation
keeps between calls belongs to an object the caller holds, such as the
cell search a density model builds at construction, so that two calls
with equal arguments cost the same and share nothing.
"""

import ast
from pathlib import Path

import besov_robust

PACKAGE = Path(besov_robust.__file__).parent
MODULE_CONTAINERS = {"besov.LOSS_PRESETS", "cli._FIELDS", "cli.PRESETS", "wavelets._CACHE"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
_MEMOIZERS = {"cache", "lru_cache"}


def module_containers(source: str) -> list[str]:
    """Names the module body binds to a dict, list or set."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        called = getattr(call, "id", getattr(call, "attr", None))
        if isinstance(value, _CONTAINER_NODES) or called in _CONTAINER_CALLS:
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def memoizers(source: str) -> list[str]:
    """Uses of functools.cache or functools.lru_cache in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in _MEMOIZERS]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _MEMOIZERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(node.attr)
    return found


def test_detectors_see_containers_and_memoizers():
    source = (
        "import functools\nfrom functools import lru_cache\nA = {}\nB: list = []\n"
        "C = dict(x=1)\nD = (1, 2)\nE = {k: k for k in D}\nF = frozenset()\n"
        "@functools.cache\ndef f():\n    G = {}\n"
    )
    assert module_containers(source) == ["A", "B", "C", "E"]
    assert sorted(memoizers(source)) == ["cache", "lru_cache"]


def test_one_process_wide_cache():
    containers, memoized = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        containers |= {f"{path.stem}.{name}" for name in module_containers(source)}
        memoized += [f"{path.stem}: {name}" for name in memoizers(source)]
    assert containers == MODULE_CONTAINERS
    assert memoized == []
