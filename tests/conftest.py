import pytest
from hypothesis import settings

import support
from quatwitt import scenarios
from quatwitt.fields import FiniteField, FunctionField, Rationals
from quatwitt.valuations import GaussValuation, PAdicValuation

settings.register_profile("exact", deadline=None, max_examples=50)
settings.load_profile("exact")

_acceptance_results = []


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if report.when == "call":
        _acceptance_results.append((name, report.outcome))
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_results.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_results:
        tag = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"[{tag}] {name}")


@pytest.fixture(autouse=True)
def fresh_generators():
    # generator_setup memoizes one generator per scenario; starting every
    # test from an empty memo keeps the tests independent of their order
    scenarios._generator.cache_clear()
    yield
    scenarios._generator.cache_clear()


@pytest.fixture(scope="session")
def optimized_outcomes():
    # the tests registered by support.optimized, run once per session in
    # one python -O interpreter
    return support.run_optimized()


@pytest.fixture(scope="session")
def Q():
    return Rationals()


@pytest.fixture(scope="session")
def K(Q):
    return FunctionField(Q, "s")


@pytest.fixture(scope="session")
def F3():
    return FiniteField(3)


@pytest.fixture(scope="session")
def F5():
    return FiniteField(5)


@pytest.fixture(scope="session")
def F7():
    return FiniteField(7)


@pytest.fixture(scope="session")
def v3():
    return PAdicValuation(3)


@pytest.fixture(scope="session")
def v5():
    return PAdicValuation(5)


@pytest.fixture(scope="session")
def g3(v3, K):
    return GaussValuation(v3, K)
