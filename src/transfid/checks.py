"""Value checks shared by the settings types and the config parser."""
from __future__ import annotations

import sys


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite float, or an int within float range; JSON's NaN and Infinity
    are not numbers here (the comparison is false for NaN and exact for ints)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max
