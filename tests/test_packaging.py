"""Declared dependencies against what the library really imports, and
names and constants against where the library defines them."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diffspec

PACKAGE = Path(diffspec.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def third_party_imports() -> set[str]:
    """Top-level names of every absolute import in the package, lazy ones
    included, that are neither standard library nor diffspec itself."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {name.split(".")[0] for name in names}
    return {
        normalized(name)
        for name in found
        if name not in sys.stdlib_module_names and name != "diffspec"
    }


def require_source_checkout():
    if not PYPROJECT.is_file():
        pytest.skip("diffspec is not imported from a source checkout")


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    require_source_checkout()
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    return {normalized(re.match(r"[A-Za-z0-9_.-]+", dep).group()) for dep in deps}


def test_every_third_party_import_is_declared():
    assert third_party_imports() <= declared_dependencies()


def test_every_declared_dependency_is_imported():
    assert declared_dependencies() <= third_party_imports()


def test_import_and_candidates_and_fixed_points_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import diffspec\n"
        "diffspec.sobol_candidates(64)\n"
        "diffspec.fixed_point_window(diffspec.rule_by_name('thue-morse'), 0, 4096)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def loaded_names(path: Path, attributes: bool = False) -> set[str]:
    """Names a file loads or imports, outside the top-level statement
    that defines each of them; with attributes, only the attribute names
    it loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own.update(dict.fromkeys(names, range(stmt.lineno, stmt.end_lineno + 1)))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and not attributes:
            names = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and not attributes:
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {n for n in names if node.lineno not in own.get(n, ())}
    return found


def test_all_entries_resolve_once():
    assert len(diffspec.__all__) == len(set(diffspec.__all__))
    for name in diffspec.__all__:
        assert hasattr(diffspec, name), name


def callers(attributes: bool = False) -> set[str]:
    """Names loaded by the library, the acceptance gates or the benchmark;
    with attributes, only the attribute names they load."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [Path(__file__).with_name("test_acceptance.py")]
    files += sorted((PYPROJECT.parent / "perfbench").glob("*.py"))
    return set().union(*(loaded_names(p, attributes) for p in files))


def test_every_exported_name_has_a_caller():
    """Each __all__ entry is used by the library, the acceptance gates or
    the benchmark, not only by its own tests."""
    require_source_checkout()
    assert sorted(set(diffspec.__all__) - callers()) == []


# public members that only tests call or read, kept as independent
# oracles for them
TEST_ORACLES = {
    "EquivarianceReport.first_violation",
    "FourierModuleElement.star_value",
}

# public method names that more than one class defines: a call of one
# hides an idle other from the caller check, so each was checked by hand
# to have a caller on every class that defines it
SHARED_METHOD_NAMES = {"parse", "to_csv", "value"}


def library_classes():
    """(class, public method names, public annotated field names) for every
    top-level class of the library."""
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, ast.ClassDef):
                methods = [node.name for node in stmt.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
                fields = [node.target.id for node in stmt.body
                          if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                          and not node.target.id.startswith("_")]
                yield stmt.name, methods, fields


def public_definitions() -> set[str]:
    """Every public top-level function and class of the library, as its
    name, and every public method and annotated field of its classes, as
    Class.member."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                found.add(stmt.name)
    for cls, methods, fields in library_classes():
        found |= {f"{cls}.{name}" for name in methods + fields}
    return found


def test_every_public_definition_has_a_caller():
    """Each public function, class, method and field is used by the
    library, the acceptance gates or the benchmark, or is a named test
    oracle.  A member counts as used only where its name is loaded as an
    attribute, not where a variable shares its name."""
    require_source_checkout()
    names, attributes = callers(), callers(attributes=True)
    idle = {
        name for name in public_definitions()
        if name.split(".")[-1] not in (attributes if "." in name else names)
    }
    assert sorted(idle - TEST_ORACLES) == []
    # an oracle that gains a caller leaves the list
    assert sorted(TEST_ORACLES - idle) == []


def test_shared_method_names_are_reviewed():
    """An attribute load of a method name counts for every class that
    defines it, so the names that two classes share are a reviewed list:
    a new one needs its callers checked class by class."""
    seen = [name for _, methods, _ in library_classes() for name in methods]
    assert {name for name in seen if seen.count(name) > 1} == SHARED_METHOD_NAMES


def test_the_merge_tolerance_is_written_once():
    """1e-9, the float merge tolerance, appears in the library's code only
    as the value of delone.MERGE_TOL; every other use reads that name.
    Float constants are scanned, so docstrings and comments do not count."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        assigned = {
            id(node.value)
            for node in nodes
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MERGE_TOL"
        }
        found += [
            f"{path.name}:{node.lineno}" + (" MERGE_TOL" if id(node) in assigned else "")
            for node in nodes
            if isinstance(node, ast.Constant) and node.value == 1e-9
        ]
    assert [place for place in found if not place.endswith(" MERGE_TOL")] == []
    assert len(found) == 1 and found[0].startswith("delone.py:"), found


def test_plans_are_kept_by_one_store():
    """No module keeps a weak-keyed table: weakref is imported nowhere, and
    the _plans field of a sample is read or written only by
    subshift.derived, so every plan is kept by its one rule."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        store = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("subshift.py", "derived")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{path.name}:{node.lineno} import {m}" for m in modules
                      if m.split(".")[0] == "weakref"]
            named = (isinstance(node, ast.Attribute) and node.attr == "_plans") or (
                isinstance(node, ast.Constant) and node.value == "_plans")
            if named and id(node) not in store:
                found.append(f"{path.name}:{node.lineno} _plans")
    assert found == []


def test_local_patterns_are_ranked_by_one_encoder():
    """np.minimum.at, the search for each row's first site, appears only in
    subshift.row_ranks; subshift._ranks is imported or read only inside
    subshift; and delone calls no np.unique, so every local pattern it
    ranks goes through row_ranks."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        encoder = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("subshift.py", "row_ranks")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            attr = node.attr if isinstance(node, ast.Attribute) else None
            if (attr == "at" and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "minimum" and id(node) not in encoder):
                found.append(f"{path.name}:{node.lineno} minimum.at")
            if attr == "unique" and path.name == "delone.py":
                found.append(f"{path.name}:{node.lineno} unique")
            if path.name != "subshift.py":
                names = [alias.name for alias in node.names] if isinstance(
                    node, ast.ImportFrom) else [attr or getattr(node, "id", None)]
                found += [f"{path.name}:{node.lineno} _ranks" for n in names if n == "_ranks"]
    assert found == []
