"""The collector threshold a check sets.

The first check of a process raises the young generation's threshold
to ``GC_YOUNG_THRESHOLD_FLOOR`` (``core.api.ensure_process_initialized``)
and never lowers it; a disabled collector stays as it was, and the
older generations keep their thresholds. The setting is process-wide,
so each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.api import GC_YOUNG_THRESHOLD_FLOOR

SRC = os.path.dirname(os.path.dirname(repro.__file__))

FLOOR = GC_YOUNG_THRESHOLD_FLOOR


def _after_checks(setup: str, between: str = "") -> dict:
    """The collector's state after two checks in a fresh interpreter:
    *setup* runs before the first, *between* after it."""
    script = "\n".join([
        "import gc, json",
        setup,
        "from repro.core.api import check_source",
        "check_source('int f(void) { return 0; }\\n', 'f.c')",
        between,
        "check_source('int g(void) { return 1; }\\n', 'g.c')",
        "print(json.dumps({'threshold': gc.get_threshold(),",
        "                  'enabled': gc.isenabled()}))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    state["threshold"] = tuple(state["threshold"])
    return state


@pytest.mark.parametrize("setup, threshold, enabled", [
    ("", (FLOOR, 10, 10), True),
    ("gc.set_threshold(700, 5, 3)", (FLOOR, 5, 3), True),
    (f"gc.set_threshold({2 * FLOOR}, 20, 30)", (2 * FLOOR, 20, 30), True),
    ("gc.disable()", (700, 10, 10), False),
    ("gc.set_threshold(0, 10, 10)", (0, 10, 10), True),
], ids=["default", "older-generations-kept", "higher-kept", "disabled",
        "threshold-0"])
def test_the_first_check_raises_the_young_threshold_only(
    setup, threshold, enabled
):
    state = _after_checks(setup)
    assert state == {"threshold": threshold, "enabled": enabled}


def test_a_host_policy_set_after_the_first_check_stays():
    state = _after_checks("", between="gc.set_threshold(1000, 10, 10)")
    assert state == {"threshold": (1000, 10, 10), "enabled": True}
