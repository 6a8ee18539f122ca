"""Shared fixtures and the acceptance-summary terminal hook."""
import re

import pytest

from baxq.borelhoms import TwistConfig
from baxq.lop import GradingConfig
from baxq.qnum import QContext


def make_setup(l: int, n: int):
    """(twist, grading, ctx, family) for a default chain of rank l."""
    from baxq.qop import QFamily

    twist = TwistConfig.default(l)
    grading = GradingConfig.principal(l)
    ctx = QContext(q=0.7)
    return twist, grading, ctx, QFamily(n, twist, grading, ctx)


_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_RESULTS = {}


def pytest_runtest_logreport(report):
    m = _ACCEPTANCE.search(report.nodeid)
    if m and report.when == "call":
        _RESULTS[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        outcome = "PASS" if _RESULTS[num] == "passed" else "FAIL"
        terminalreporter.write_line("criterion %02d: %s" % (num, outcome))
