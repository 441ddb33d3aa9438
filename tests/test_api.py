"""API-surface guard: every name the kernel exports and every public
function or class of the mixture module has a caller in the package
outside the file that defines it, and every public function, class and
method of the data, metrics, model and training modules, and every public
method of a class of the kernel and mixture modules, is used in the
package outside its own definition, so no entry point is kept for the
tests alone."""

import ast
import functools
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import vadeers
from vadeers import data, gmm, metrics, model, nnkernel, training

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


# ---------------------------------------------------------------------------
# data, metrics, model and training, and the methods of the kernel's and
# the mixture's classes: used anywhere but in their own body
# ---------------------------------------------------------------------------

FOUR = (data, metrics, model, training)
KERNEL = tuple(importlib.import_module(f"{nnkernel.__name__}.{info.name}")
               for info in pkgutil.iter_modules(nnkernel.__path__))

MEMBERS = (types.FunctionType, property, classmethod, staticmethod,
           functools.cached_property)

# contracts whose callers are tests or tools by design
ALLOWED = {
    # the determinism tests compare two runs' logs through it
    "training.RunLog.comparable",
    # the conformance tests check a run log against its schedule with it
    "training.check_schedule_conformance",
    # the protocol's epoch total, which the schedule tests assert
    "training.TrainSchedule.total_epochs",
    # reads back a report that a run wrote; the CLI writes, never reads
    "metrics.MetricReport.from_json",
    # row views that perfbench/workloads.py reads; perfbench is kept fixed
    "data.Dataset.drugs", "data.Dataset.cells",
    "data.Dataset.embedding_matrix", "data.Dataset.feature_matrix",
}


def _guarded():
    """(qualified name, attribute?) of every public function and class of
    the four modules, and of every public method or property of their
    classes and of the classes of the kernel and mixture modules, whose
    own names are guarded above; a method counts as used only where it
    is read as an attribute."""
    out = []
    for module in (*FOUR, gmm, *KERNEL):
        short = module.__name__.removeprefix("vadeers.")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            if module in FOUR:
                out.append((f"{short}.{name}", False))
            if inspect.isclass(obj):
                out += [(f"{short}.{name}.{attr}", True)
                        for attr, member in vars(obj).items()
                        if not attr.startswith("_")
                        and isinstance(member, MEMBERS)]
    return out


GUARDED = _guarded()


class _Reads(ast.NodeVisitor):
    """The bare names and the attribute names a file reads, each outside
    the body of a function or class of that name."""

    def __init__(self):
        self.names, self.attrs, self.inside = set(), set(), []

    def visit_def(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_def

    def visit_Name(self, node):
        if node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.attrs.add(node.attr)
        self.generic_visit(node)


@functools.cache
def _package_reads() -> tuple[set[str], set[str]]:
    names, attrs = set(), set()
    for path in PACKAGE.rglob("*.py"):
        reads = _Reads()
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
        names |= reads.names
        attrs |= reads.attrs
    return names, attrs


@pytest.mark.parametrize("qualname, attribute", GUARDED,
                         ids=[q for q, _ in GUARDED])
def test_public_member_is_used_in_the_package(qualname, attribute):
    names, attrs = _package_reads()
    leaf = qualname.rpartition(".")[2]
    used = leaf in attrs if attribute else leaf in names | attrs
    assert used or qualname in ALLOWED, \
        f"{qualname} is used nowhere in the package but in its own body"


def test_every_allowed_name_is_guarded_and_unused():
    names, attrs = _package_reads()
    guarded = dict(GUARDED)
    for qualname in ALLOWED:
        leaf = qualname.rpartition(".")[2]
        assert qualname in guarded, qualname
        assert leaf not in (attrs if guarded[qualname] else names | attrs), \
            f"{qualname} has a use in the package; drop it from ALLOWED"
