"""Print each row of the memory table (`BUDGETS` in
tests/test_memory_budget.py) with its measured peak beside its budget, in
grids of the table's 128x128x64 float64 input (8 MiB).

    python3 tools/memory_rows.py
    python3 tools/memory_rows.py discretize local_intensity

Each row runs in a fresh interpreter of its own on this checkout's `src/`,
with only the table's module imported and its lazily imported modules
loaded: the state CI's "Memory budgets" step checks the rows in.
Arguments keep the rows whose id contains any of them. The last column is
the measured peak plus 10%, rounded up to 0.01 grids: the budget the
table's rule sets for that peak, so budgets are re-set from these
numbers, not from an assertion's message. A row that the table skips on
this interpreter prints `skipped`.

Exit status: 0 when every row printed is within its budget, 1 otherwise.
"""
from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATHS = [str(ROOT / "src"), str(ROOT / "tests")]

# one row, by its id: prints its peak in grids, or "skipped"
CHILD = """
import sys, tempfile
from pathlib import Path
import pytest
sys.path[:0] = {paths!r}
import test_memory_budget as table

row = next(p for p in table.BUDGETS if p.id == {row!r})
if any(m.name == "skipif" and m.args[0] for m in row.marks):
    print("skipped")
else:
    table.load_lazy_modules()
    layer, roi, _ = row.values
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        print(layer(roi, Path(tmp), monkeypatch) / table.GRID_BYTES)
"""


def measure(row: str) -> str:
    """The row's peak in grids, measured in a fresh interpreter, or "skipped"."""
    done = subprocess.run([sys.executable, "-c", CHILD.format(paths=PATHS, row=row)],
                          capture_output=True, text=True, check=True)
    return done.stdout.split()[-1]


def main(argv: list[str]) -> int:
    sys.path[:0] = PATHS
    import test_memory_budget as table

    rows = [(p.id, p.values[2]) for p in table.BUDGETS if not argv or any(a in p.id for a in argv)]
    width = max((len(row) for row, _ in rows), default=0)
    print(f"{'row':{width}}  {'peak':>6}  {'budget':>6}  {'+10%':>6}")
    over = 0
    for row, budget in rows:
        peak = measure(row)
        if peak == "skipped":
            print(f"{row:{width}}  {peak:>6}  {budget:6.2f}")
            continue
        peak = float(peak)
        over += peak > budget
        print(f"{row:{width}}  {peak:6.3f}  {budget:6.2f}  {math.ceil(peak * 110) / 100:6.2f}"
              + ("  OVER" if peak > budget else ""))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
