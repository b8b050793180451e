"""tools/memory_rows.py prints a memory-table row's peak beside its budget."""
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "memory_rows.py"


def test_a_row_prints_its_peak_its_budget_and_the_budget_it_sets():
    # the paper-shape LI row: one of the table's quickest
    done = subprocess.run([sys.executable, str(TOOL), "spectrum_cached-paper"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert header.split() == ["row", "peak", "budget", "+10%"]
    name, peak, budget, resets = row.split()
    assert name == "local_intensity-spectrum_cached-paper"
    assert 0 < float(peak) <= float(budget)
    assert float(resets) == math.ceil(float(peak) * 110) / 100
