"""Every module-level import in the package is used by its module.

No linter ships with the project, so this stands in for the unused-import
check: an import that nothing reads is a dependency the module only seems
to have. `__init__.py` is exempt, because its imports are the package's
public names.
"""

import ast
from pathlib import Path

import pytest

import besov_robust

MODULES = sorted(
    p.name for p in Path(besov_robust.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_detector_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom typing import Any, Sequence\nx: Any = np.zeros(1)\n"
    assert unused_imports(source) == ["os", "Sequence"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    source = (Path(besov_robust.__file__).parent / module).read_text()
    assert unused_imports(source) == []
