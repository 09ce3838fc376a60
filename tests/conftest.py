"""Session hooks of the tier-1 tests."""

import sys
from pathlib import Path


def pytest_terminal_summary(terminalreporter):
    """Say how the golden outputs were compared, when their test ran."""
    ran = any(
        "test_golden.py" in getattr(r, "nodeid", "")
        for reports in terminalreporter.stats.values()
        for r in reports
    )
    if ran:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        import regen_golden

        terminalreporter.write_line(regen_golden.mode_line())
