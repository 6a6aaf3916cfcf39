"""Shared fixtures and the acceptance summary hook.

Acceptance tests are named ``test_criterion_NN_*``.  After the run we print
one PASS/FAIL line per criterion so the verdict is readable without digging
through the pytest report.
"""

import random
import re

import numpy as np
import pytest

from diameter_games import Player
from diameter_games.game_core import new_game, run_match
from diameter_games.potential_engine import OpenPairs


_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_results: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" and not (report.when == "setup" and report.skipped):
        return
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.skipped:
        outcome = "SKIP"
    elif report.failed:
        outcome = "FAIL"
    else:
        outcome = "PASS"
    # A parametrized criterion fails as a whole if any case fails.
    prev = _criterion_results.get(num)
    if prev == "FAIL":
        return
    if outcome == "FAIL" or prev is None or prev == "SKIP":
        _criterion_results[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_criterion_results):
        verdict = _criterion_results[num]
        terminalreporter.write_line(f"criterion {num:02d}: {verdict}")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def fresh_game():
    """Factory for a clean game state."""

    def make(n, a=1, b=1, first=Player.MAKER):
        return new_game(n, a, b, first=first)

    return make


@pytest.fixture
def play():
    """Run a full match and return the transcript."""

    def go(n, a, b, maker, breaker, prop, seed=0, **kw):
        state = new_game(n, a, b)
        return run_match(state, maker, breaker, prop, seed=seed, **kw)

    return go


@pytest.fixture
def kept_order_checked(monkeypatch):
    """Every OpenPairs.take checks that its kept order is the one a fresh
    stable argsort of the effective weights gives; the list holds the count."""
    checks = [0]
    take = OpenPairs.take

    def checked(self, w):
        eff = np.where(self.open_deg > 0, w, -np.inf)
        pair = take(self, w)
        assert self.order == np.argsort(-eff, kind="stable").tolist()
        checks[0] += 1
        return pair

    monkeypatch.setattr(OpenPairs, "take", checked)
    return checks
