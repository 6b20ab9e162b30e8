"""The package stands alone and has one path per hot loop.

Every module under ``src/repro`` is parsed: none may import the test or
benchmark trees (the oracles live there, and production code must not
depend on them), none may mention the removed runtime switches — the
per-path toggles and the environment variables that once selected an
oracle or a cold pool — nor, anywhere in its text, the second paths that
moved to ``tests/oracles``, and a cluster is stepped only at the listed
sites, so managers run through the one episode loop.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))

FORBIDDEN_ROOTS = {"tests", "benchmarks"}
REMOVED_SWITCHES = re.compile(
    r"\b(fast_sim|fast_events|fast_path|fast_train|fast_control"
    r"|REPRO_SIM_PURE_NUMPY|REPRO_WARM_POOL)\b"
)

#: Second implementations that now live only in ``tests/oracles``: the
#: object event loop, the recursive tree grower and walk, the per-window
#: dataset encoder, the cold pool mode and the einsum convolution.
MOVED_TO_ORACLES = re.compile(
    r"\b(run_reference|_build_tree_reference|_predict_tree|sanitize_window"
    r"|encode_window|broadcast_enabled|_forward_einsum)\b"
)


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, (node.module or "").split(".")[0]


def _words(tree: ast.AST):
    """Identifiers and string constants, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_modules_found():
    assert len(MODULES) > 20


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_test_or_benchmark_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [
        f"line {line}: imports {root}"
        for line, root in _imported_roots(tree)
        if root in FORBIDDEN_ROOTS
    ]
    assert not bad, bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_removed_switches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [
        f"line {line}: {match.group(0)}"
        for line, text in _words(tree)
        for match in REMOVED_SWITCHES.finditer(text)
    ]
    assert not bad, bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_second_paths(path):
    bad = [
        f"line {line}: {match.group(0)}"
        for line, text in enumerate(path.read_text().splitlines(), start=1)
        for match in MOVED_TO_ORACLES.finditer(text)
    ]
    assert not bad, bad


#: The only places under ``src/repro`` where a cluster is stepped, each
#: for a stated reason: the episode loop every manager runs through, the
#: collection loop (its policies observe every step's outcome), lockstep
#: multi-tenant arbitration, and a fixed allocation with no manager.  A
#: new site must be argued for in review.
CLUSTER_STEP_SITES = {
    "harness/experiment.py::run_episode",
    "core/data_collection.py::_collect_episode",
    "tenancy/tenant.py::Tenant.apply",
    "sim/cluster.py::ClusterSimulator.run",
}


def _is_cluster(receiver: ast.expr, owner: str | None) -> bool:
    if isinstance(receiver, ast.Name):
        if receiver.id == "self":
            return owner == "ClusterSimulator"
        return receiver.id.endswith("cluster")
    return isinstance(receiver, ast.Attribute) and receiver.attr.endswith("cluster")


def _cluster_step_sites(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(SRC).as_posix()

    def visit(node, scope: tuple[str, ...], owner: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, scope + (child.name,), child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,), owner)
            else:
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "step"
                    and _is_cluster(child.func.value, owner)
                ):
                    yield f"{rel}::{'.'.join(scope)}"
                yield from visit(child, scope, owner)

    yield from visit(tree, (), None)


def test_cluster_stepped_only_at_allowed_sites():
    sites = [site for path in MODULES for site in _cluster_step_sites(path)]
    assert sorted(sites) == sorted(CLUSTER_STEP_SITES)


def _module_imports(tree: ast.Module):
    """Names bound by the module-level imports, with their line numbers."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including quoted annotations and
    the strings of ``__all__``."""
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_unused_imports(path):
    """A module-level import the module never reads is dead weight
    (package ``__init__`` files re-export, so they are exempt)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    bad = [
        f"line {line}: {name}"
        for line, name in _module_imports(tree)
        if name not in used
    ]
    assert not bad, bad
