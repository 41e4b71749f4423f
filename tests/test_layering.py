"""The package stack of ``src/repro``, enforced on every import statement.

Each package may import only from its own layer or the layers below it::

    model → summary → {wire, obs} → network → broker → workload → runtime
          → {experiments, analysis, clients, tools, ext, siena, baseline}

The scan walks the whole AST of every module, so an import hidden inside a
function body counts the same as one at the top of the file.  A known
back edge would be allow-listed as a package pair in :data:`ALLOWED`
(there are none); a new one fails here, and one that disappears must be
dropped from :data:`ALLOWED` so it cannot silently come back.  ``repro/__init__.py`` is the public facade over every
layer and is not itself a layer.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: Bottom to top; packages in one tuple share a layer.
STACK: Tuple[Tuple[str, ...], ...] = (
    ("model",),
    ("summary",),
    ("wire", "obs"),
    ("network",),
    ("broker",),
    ("workload",),
    ("runtime",),
    ("experiments", "analysis", "clients", "tools", "ext", "siena", "baseline"),
)
LAYER: Dict[str, int] = {
    package: level for level, packages in enumerate(STACK) for package in packages
}

#: Known upward imports, as (importer, imported) package pairs.
ALLOWED: Set[Tuple[str, str]] = set()


def _imported_names(
    node: ast.AST, module: str, is_package: bool
) -> Iterator[str]:
    """Dotted names one import statement binds, with relative imports
    resolved against ``module``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
        return
    base = node.module or ""
    if node.level:
        parts = module.split(".")
        parts = parts if is_package else parts[:-1]
        parts = parts[: len(parts) - (node.level - 1)]
        base = ".".join(parts + ([node.module] if node.module else []))
    for alias in node.names:
        yield f"{base}.{alias.name}"


def back_edges(src: Path) -> List[Tuple[str, str, str, int]]:
    """``(importer, imported, path, line)`` for every import in
    ``src/repro`` that reaches a higher layer than its own package."""
    edges = []
    root = src / "repro"
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(src).with_suffix("")
        parts = relative.parts
        if len(parts) < 3:  # the top-level facade
            continue
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        importer = parts[1]
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for name in _imported_names(node, module, is_package):
                target = name.split(".")
                if target[0] != "repro" or len(target) < 2:
                    continue
                imported = target[1]
                if imported not in LAYER or imported == importer:
                    continue
                if LAYER[imported] > LAYER[importer]:
                    edges.append(
                        (importer, imported, str(path.relative_to(src)), node.lineno)
                    )
    return edges


def test_every_package_is_in_the_stack():
    packages = {
        path.parent.name for path in (SRC / "repro").glob("*/__init__.py")
    }
    assert packages == set(LAYER)


def test_no_import_reaches_up_the_stack():
    found = back_edges(SRC)
    unexpected = [edge for edge in found if edge[:2] not in ALLOWED]
    assert not unexpected, "imports that reach a higher layer:\n" + "\n".join(
        f"  {path}:{line}: repro.{a} -> repro.{b}"
        for a, b, path, line in unexpected
    )
    stale = ALLOWED - {edge[:2] for edge in found}
    assert not stale, f"allow-listed edges no longer in the tree: {sorted(stale)}"


def test_checker_sees_a_function_local_back_edge(tmp_path):
    model = tmp_path / "repro" / "model"
    model.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (model / "__init__.py").write_text("from .events import Event\n")
    (model / "planted.py").write_text(
        "def late():\n"
        "    from repro.runtime.server import BrokerRuntime\n"
        "    return BrokerRuntime\n"
    )
    assert back_edges(tmp_path) == [
        ("model", "runtime", str(Path("repro/model/planted.py")), 2)
    ]
