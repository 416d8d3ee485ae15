"""Tests: one dependency order for the whole package (DESIGN.md, "Layers").

Every import of a ``repro`` module inside ``src/`` — at module level or
inside a function — must point down :data:`LAYERS` or stay inside its own
package. Peers on one row import each other in neither direction. There
is no allow-list: an upward edge is fixed by moving code to the layer
that owns it. Package ``__init__``s hold only their docstring, so a name
has one import path; ``repro``'s own quickstart names are a lazy table.

The second half pins, in a fresh interpreter, what three entry points
load: the deployed replica, the routing client and the sans-I/O log.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: Lowest row first. An entry is a top-level module or package of
#: ``repro``; ``repro`` itself (the lazy quickstart table) sits on top.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors",),
    ("observability",),
    ("crypto",),
    ("process",),
    ("messages",),
    ("detectors",),
    ("core",),
    ("broadcast", "replication"),
    ("consensus",),
    ("service", "byzantine"),
    ("sim", "net"),
    ("systems", "synchronous"),
    ("analysis",),
    ("faults",),
    ("shard", "campaign"),
    ("mc",),
    ("cli",),
    ("__main__", "repro"),
)
RANK = {entry: rank for rank, row in enumerate(LAYERS) for entry in row}


def entry_of(module: str) -> str:
    """The :data:`LAYERS` entry a dotted ``repro`` module belongs to."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def repro_imports(path: Path):
    """``(line, imported module)`` for every import of ``repro`` in
    ``path``; a relative import is reported as ``"."``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.lineno, "."
            elif node.module and node.module.split(".")[0] == "repro":
                yield node.lineno, node.module


SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_every_module_has_a_layer():
    unplaced = {entry_of(module_name(path)) for path in SOURCES} - set(RANK)
    assert not unplaced, f"place these in LAYERS: {sorted(unplaced)}"


def test_no_import_points_up_the_layers():
    upward = []
    for path in SOURCES:
        source = module_name(path)
        here = entry_of(source)
        for line, target in repro_imports(path):
            if target == ".":
                upward.append(f"{source}:{line} relative import")
                continue
            there = entry_of(target)
            if there != here and RANK.get(there, len(LAYERS)) >= RANK[here]:
                upward.append(f"{source}:{line} -> {target}")
    assert not upward, "\n".join(upward)


def test_package_inits_hold_only_their_docstring():
    for init in PACKAGE.rglob("__init__.py"):
        if init.parent == PACKAGE:
            continue
        body = ast.parse(init.read_text(encoding="utf-8")).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr), init


def loaded_by(module: str) -> list[str]:
    """Every ``repro`` module a fresh interpreter holds after importing
    ``module``."""
    code = (
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return result.stdout.split()


def within(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    return [m for m in modules if m.split(".")[1:2] and m.split(".")[1] in packages]


def test_the_deployed_replica_loads_no_simulator_fault_engine_or_campaign():
    loaded = loaded_by("repro.net.node")
    assert not within(
        loaded, ("sim", "analysis", "faults", "campaign", "systems", "byzantine")
    )


def test_the_routing_client_loads_under_forty_modules():
    assert len(loaded_by("repro.shard.client")) < 40


def test_the_sans_io_log_loads_no_simulator_consensus_or_analysis():
    loaded = loaded_by("repro.service.slotlog")
    assert not within(loaded, ("sim", "consensus", "analysis"))
