"""Shared pytest wiring: the acceptance suite's verdict summary.

Each acceptance test records one PASS/FAIL line; the hook replays them in
the terminal summary so the verdicts survive output capture.
"""

import sys

import pytest

VERDICTS = []


@pytest.fixture(scope="session")
def acceptance_log():
    return VERDICTS


@pytest.fixture
def int_digit_limit():
    """Python's default integer-string limit (4,300 digits), restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer-string limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
