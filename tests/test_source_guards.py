"""The CSR form is a view for tests: an AST scan of the package source
keeps production code on the stored diagonals, and off dense N x N state
constructions."""

import ast
from pathlib import Path

import pytest

import moyal_lab

SOURCES = sorted(Path(moyal_lab.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def _modules_where(found) -> list[str]:
    return [path.stem for path in SOURCES if any(found(node) for node in ast.walk(_tree(path)))]


def _imports_scipy_sparse(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names)


def test_sources_found():
    assert {"operator_core", "moyal_rep", "bogoliubov_flow"} <= {path.stem for path in SOURCES}


def test_only_operator_core_reads_mat():
    """``Operator.mat`` is built and read (by the wide-product fallback) in
    ``operator_core`` only."""
    assert _modules_where(lambda node: isinstance(node, ast.Attribute) and node.attr == "mat") == ["operator_core"]


def test_scipy_sparse_importers():
    """Only ``operator_core``, which builds the CSR view, imports scipy.sparse."""
    assert _modules_where(_imports_scipy_sparse) == ["operator_core"]


def _uses_numpy_random(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or (module == "numpy" and "random" in [a.name for a in node.names])
    return False


def test_no_numpy_random():
    """Reports are functions of their inputs: no module draws from NumPy's
    random state, global or seeded."""
    assert _modules_where(_uses_numpy_random) == []


@pytest.mark.parametrize("name", ["kron", "BogoliubovFrame", "bogoliubov_frame"])
def test_name_appears_nowhere(name):
    def uses(node: ast.AST) -> bool:
        return (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
            or (isinstance(node, ast.alias) and name in node.name.split("."))
            or (isinstance(node, ast.Constant) and node.value == name)
        )

    assert _modules_where(uses) == []


def _names_eigvalsh(node: ast.AST) -> bool:
    name = "eigvalsh_tridiagonal"
    return (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in node.name.split("."))
    )


def test_one_sector_eigenvalue_solver():
    """Every sector eigenvalue comes from ``operator_core.hermitian_eigvals``:
    no other function, and no module-level code, names scipy's
    ``eigvalsh_tridiagonal``, so every report solves sectors in one order and
    stops by one rule."""
    callers, references, inside = [], 0, 0
    for path in SOURCES:
        tree = _tree(path)
        references += sum(map(_names_eigvalsh, ast.walk(tree)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = sum(map(_names_eigvalsh, ast.walk(node)))
                if found:
                    callers.append(f"{path.stem}.{node.name}")
                    inside += found
    assert callers == ["operator_core.hermitian_eigvals"]
    assert inside == references


def _calls_numpy_diag_or_trace(node: ast.AST) -> bool:
    names = ("diag", "trace")
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy" and any(alias.name in names for alias in node.names)
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def test_no_dense_diagonal_or_trace():
    """The ground state is its N diagonal coefficients and ``hs_inner`` a
    column sum: no module inflates a vector with ``np.diag`` or reads a
    product back through ``np.trace``."""
    assert _modules_where(_calls_numpy_diag_or_trace) == []
