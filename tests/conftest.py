"""Shared fixtures for the test suite.

The acceptance tests record a verdict per criterion; the terminal
summary hook prints them as one line each at the end of the run, so the
pass/fail ledger is visible even though pytest captures test output.

The optimizer memoises everything it computes that does not read d
(the regime, r_g*, gamma*, their secrecy probabilities and the selection
target) for the last secrecy parameter set; every test starts with that
memo empty, so no result or solve count depends on which test ran before
it.

A test that takes batch_draws sees every slice the engine draws, as
(window radius, batch index, trial count), in the order drawn.
"""

import pytest

from d2d_secrecy import optimizer


@pytest.fixture(autouse=True)
def _cold_secrecy_memo():
    optimizer._secrecy_solution.cache_clear()


@pytest.fixture
def batch_draws(monkeypatch):
    # imported here, so that loading this file loads no simulation module
    from d2d_secrecy import montecarlo

    draws = []
    draw = montecarlo._batch_points

    def counted(params, radius, seed, batch, trials, streams):
        draws.append((radius, batch, trials))
        return draw(params, radius, seed, batch, trials, streams)

    monkeypatch.setattr(montecarlo, "_batch_points", counted)
    return draws


_RESULTS: dict[int, str] = {}


@pytest.fixture
def acceptance_record():
    def _record(number: int, name: str, passed: bool) -> None:
        verdict = "PASS" if passed else "FAIL"
        _RESULTS[number] = f"criterion {number} ({name}): {verdict}"

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _RESULTS:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for number in sorted(_RESULTS):
            terminalreporter.write_line(_RESULTS[number])
