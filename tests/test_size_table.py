"""``docs/size.md`` must match the source tree it describes.

The table lists, per package of ``src/repro``, its ``*.py`` files and their
lines (``wc -l`` over the concatenated files), then the facade and the
``src/`` total.  This test recounts all of it and compares every row, so
a change that grows or shrinks ``src/`` has to regenerate the table (the
command is in the document) in the same commit.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
TABLE = ROOT / "docs" / "size.md"

#: ``| 4 | `broker` | 6 | 2200 |`` and the facade row.
ROW = re.compile(r"^\|[^|]*\|\s*`([^`]+)`[^|]*\|\s*(\d+)\s*\|\s*(\d+)\s*\|$")
TOTAL = re.compile(
    r"^\|\s*\|\s*\*\*`src/` total\*\*\s*\|\s*(\d+)\s*\|\s*\*\*(\d+)\*\*\s*\|$"
)
FACADE = "repro/__init__.py"


def _count(files) -> Tuple[int, int]:
    files = list(files)
    return len(files), sum(path.read_bytes().count(b"\n") for path in files)


def _measured() -> Dict[str, Tuple[int, int]]:
    counts = {
        package.name: _count(package.rglob("*.py"))
        for package in sorted(PACKAGE_ROOT.iterdir())
        if package.is_dir() and any(package.rglob("*.py"))
    }
    counts[FACADE] = _count([PACKAGE_ROOT / "__init__.py"])
    return counts


def _documented() -> Tuple[Dict[str, Tuple[int, int]], Tuple[int, int]]:
    rows: Dict[str, Tuple[int, int]] = {}
    total = None
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        match = TOTAL.match(line)
        if match:
            total = (int(match.group(1)), int(match.group(2)))
            continue
        match = ROW.match(line)
        if match:
            rows[match.group(1)] = (int(match.group(2)), int(match.group(3)))
    assert total is not None, f"{TABLE} has no `src/` total row"
    return rows, total


def test_every_package_row_is_current():
    rows, _total = _documented()
    measured = _measured()
    stale = {
        name: {"documented": rows.get(name), "measured": counts}
        for name, counts in measured.items()
        if rows.get(name) != counts
    }
    assert not stale, f"docs/size.md is stale, regenerate it: {stale}"
    assert set(rows) == set(measured), (
        f"docs/size.md lists packages that do not exist: "
        f"{sorted(set(rows) - set(measured))}"
    )


def test_src_total_is_current():
    _rows, total = _documented()
    measured = _count(PACKAGE_ROOT.rglob("*.py"))
    assert total == measured, (
        f"docs/size.md says src/ is {total[0]} files, {total[1]} lines; "
        f"it is {measured[0]} files, {measured[1]} lines"
    )
