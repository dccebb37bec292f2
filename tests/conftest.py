"""Shared pytest wiring: the acceptance suite's verdict summary, the
``norm_calls`` counter of op_norm calls and SVDs, and the ``choi_calls``
record of the maps whose process operators are formed.

Each acceptance test records one PASS/FAIL line; the hook replays them in
the terminal summary so the verdicts survive output capture.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from cp_calculus import cpmap, numerics

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


@pytest.fixture
def norm_calls(monkeypatch):
    """Count op_norm calls through every module's binding, and SVDs."""
    calls = Counter()
    op_norm, svd = numerics.op_norm, np.linalg.svd

    def counted_op_norm(m):
        calls["op_norm"] += 1
        return op_norm(m)

    def counted_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cp_calculus.") and hasattr(module, "op_norm"):
            monkeypatch.setattr(module, "op_norm", counted_op_norm)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


@pytest.fixture
def choi_calls(monkeypatch):
    """The maps to_choi is called on, in order, wherever the package binds it."""
    seen = []
    to_choi = cpmap.to_choi

    def counted(t):
        seen.append(t)
        return to_choi(t)

    for name, module in list(sys.modules.items()):
        if name.startswith("cp_calculus.") and getattr(module, "to_choi", None) is to_choi:
            monkeypatch.setattr(module, "to_choi", counted)
    return seen


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
