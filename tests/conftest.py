import pathlib

import pytest

_criterion_lines: list[str] = []


@pytest.fixture(scope="session")
def criterion_log():
    """Collector for the acceptance suite's one-line-per-criterion report."""
    return _criterion_lines.append


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


def pytest_collection_modifyitems(items):
    """Turn numpy's RuntimeWarnings into failures in this directory's tests:
    a NaN or an overflow met while stepping is a fault, not a result."""
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
