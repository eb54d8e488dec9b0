"""Emit one pass/fail line per numbered acceptance criterion, and print a
``@reproduce_failure`` blob for every failing property test, since each run
draws fresh examples."""

from __future__ import annotations

import re

from hypothesis import settings

settings.register_profile("tier1", print_blob=True)
settings.load_profile("tier1")

_CRITERION = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, bool] = {}
    for outcome, reports in terminalreporter.stats.items():
        if outcome not in ("passed", "failed", "error"):
            continue
        for report in reports:
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            number = int(match.group(1))
            passed = outcome == "passed" and results.get(number, True)
            results[number] = passed
    if not results:
        return
    terminalreporter.write_line("")
    for number in sorted(results):
        verdict = "PASS" if results[number] else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict}")
