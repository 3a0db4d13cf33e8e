import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runlong", action="store_true", default=False,
        help="run enumerations past the desk-scale budget (minutes to hours)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "longrun: enumeration past the desk-scale budget, needs --runlong")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runlong"):
        return
    skip = pytest.mark.skip(reason="needs --runlong")
    for item in items:
        if "longrun" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def pool_always(monkeypatch):
    """Every scan with workers > 1 starts a process pool: a pool's start
    costs nothing."""
    from qcqec import wdist

    monkeypatch.setattr(wdist, "_POOL_S", 0.0)


@pytest.fixture
def pools_started(monkeypatch):
    """The sizes of the process pools wdist starts, in order.  A fake pool
    records its size and runs the jobs here: no process starts."""
    from qcqec import wdist

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(wdist, "ProcessPoolExecutor", FakePool)
    return started
