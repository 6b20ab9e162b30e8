"""The package stands alone and has one path per hot loop.

Every module under ``src/repro`` is parsed: none may import the test or
benchmark trees (the oracles live there, and production code must not
depend on them), none may mention the removed runtime switches — the
per-path toggles and the environment variables that once selected an
oracle or a cold pool — and a cluster is stepped only at the listed
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


#: The only places under ``src/repro`` where a cluster is stepped, each
#: for a stated reason: the episode loop every manager runs through, the
#: collection loop (its policies observe every step's outcome), lockstep
#: multi-tenant arbitration, the per-node agent deployment, and a fixed
#: allocation with no manager.  A new site must be argued for in review.
CLUSTER_STEP_SITES = {
    "harness/experiment.py::run_episode",
    "core/data_collection.py::_collect_episode",
    "tenancy/tenant.py::Tenant.apply",
    "core/deployment.py::CentralScheduler.tick",
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
