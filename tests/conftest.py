import pathlib
import tracemalloc

import pytest
from hypothesis import settings

# Every property test draws the same examples on every run, so that tier-1
# passes or fails alike from run to run; each test keeps its max_examples.
# ``--hypothesis-profile=long`` loads a longer search instead: new examples
# on every run, and ten times the examples of a test that sets none.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("long", derandomize=False, deadline=None, max_examples=1000)
settings.load_profile("tier1")

_criterion_lines: list[str] = []


@pytest.fixture(scope="class", params=[1, 2, 3], ids=lambda b: f"block{b}")
def forced_split(request):
    """``path_profiles`` cut into blocks of 1 to 3 arrivals, each pass of
    them stepped as one array however few are dirty."""
    import jswsim.profiles

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jswsim.profiles, "_PATH_BLOCK", request.param)
        mp.setattr(jswsim.profiles, "_PATH_MIN_DIRTY", 0)
        yield request.param


def traced_peak(fn) -> int:
    """The most memory, in bytes, that Python objects and numpy arrays held
    at once while ``fn()`` ran, as ``tracemalloc`` counts it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
