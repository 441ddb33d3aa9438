"""API-surface guard: every name the kernel exports and every public
function or class of the mixture module has a caller in the package
outside the file that defines it, so no entry point is kept for the
tests alone."""

import ast
import inspect
from pathlib import Path

import pytest

import vadeers
from vadeers import gmm, nnkernel

PACKAGE = Path(vadeers.__file__).parent


def _public():
    """(module short name, name, object) of every guarded name."""
    out = [("nnkernel", name, getattr(nnkernel, name)) for name in nnkernel.__all__]
    out += [("gmm", name, obj) for name, obj in vars(gmm).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == gmm.__name__]
    return out


PUBLIC = _public()


def _uses(path: Path, module: str) -> set[str]:
    """Names a file uses: bare names, and attributes read off ``module``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == module):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module, name, obj", PUBLIC,
                         ids=[f"{m}.{n}" for m, n, _ in PUBLIC])
def test_public_name_has_a_caller_in_the_package(module, name, obj):
    own = {Path(inspect.getsourcefile(obj)).resolve(),
           (PACKAGE / "nnkernel" / "__init__.py").resolve()}
    callers = [path.relative_to(PACKAGE).as_posix()
               for path in sorted(PACKAGE.rglob("*.py"))
               if path.resolve() not in own and name in _uses(path, module)]
    assert callers, f"{module}.{name} has no caller outside its own file"
