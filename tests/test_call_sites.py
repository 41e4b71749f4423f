"""Algorithm 2's per-broker steps are called from the broker core only.

Both shells (the simulator's ``SummaryPubSub`` and the live
``BrokerRuntime``) reach a broker through
:class:`repro.broker.core.BrokerCore`, so in ``src/`` the calls below may
appear in ``repro/broker/core.py`` and nowhere else.  A second copy of a
shell's receive or act path would call one of them; the scan walks every
module's whole AST, so a call inside a method or a nested function counts.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: Functions only the core may call.
CORE_ONLY = {"receive_period_frame", "act_period", "select_period_target"}
CORE = Path("repro/broker/core.py")


def stray_calls(src: Path) -> List[Tuple[str, int, str]]:
    """``(path, line, name)`` for every call of a core-only function
    outside the core module."""
    found = []
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src)
        if relative == CORE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in CORE_ONLY:
                found.append((str(relative), node.lineno, name))
    return found


def test_period_steps_are_called_from_the_core_only():
    found = stray_calls(SRC)
    assert not found, "calls outside repro/broker/core.py:\n" + "\n".join(
        f"  {path}:{line}: {name}(" for path, line, name in found
    )


def test_checker_sees_a_nested_call(tmp_path):
    runtime = tmp_path / "repro" / "runtime"
    runtime.mkdir(parents=True)
    (runtime / "shell.py").write_text(
        "class Shell:\n"
        "    def dispatch(self, src, message):\n"
        "        def reply():\n"
        "            return self.broker.receive_period_frame(src, message)\n"
        "        return reply()\n"
    )
    core = tmp_path / "repro" / "broker"
    core.mkdir()
    (core / "core.py").write_text("x = broker.act_period(1)\n")
    assert stray_calls(tmp_path) == [
        (str(Path("repro/runtime/shell.py")), 4, "receive_period_frame")
    ]
