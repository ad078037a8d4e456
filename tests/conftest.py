"""Shared fixtures: result-store isolation and test determinism.

Store isolation
    The runner reads through :mod:`repro.results` by default, which would
    drop a ``.repro-results/`` tree in the working directory and let
    results persist *between* test sessions — test runs must never depend
    on what a previous run left behind.  Point the default store at a
    session-scoped temp directory instead: within-session caching stays
    (the experiment tests rely on it for speed), cross-session state does
    not.

    ``no_default_store`` turns persistence off and empties the runner's
    in-process cache for one test, so every cell it needs is simulated.

Process pools
    ``counting_pool`` counts the process pools the runner opens and the
    cells submitted to them.

Determinism
    Every test starts from a ``random`` state seeded from its own node id,
    so (a) no test's outcome depends on how many ``random()`` calls the
    tests before it made, and (b) a test reproduces identically when run
    alone (``pytest tests/x.py::test_y``) or in the full suite.  The
    global state is restored afterwards so the pinning itself cannot leak.

    Setting ``REPRO_TEST_ORDER_SEED=<int>`` shuffles test collection
    order; CI runs the suite twice with different seeds to flush out
    hidden inter-test coupling the per-test seeding might miss (module
    import order, shared caches, leaked process-wide singletons).
"""

import os
import random
import zlib
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest

from repro.experiments import runner
from repro.results import ResultStore, get_default_store, set_default_store


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("repro-results")
    set_default_store(ResultStore(store_dir))
    yield
    set_default_store(None)


@pytest.fixture
def no_default_store():
    """Run the runner with persistence off and an empty in-process cache;
    restore both afterwards so other test modules keep their warm cache."""
    saved_store = get_default_store()
    saved_cache = dict(runner._CACHE)
    set_default_store(None)
    runner.clear_cache()
    yield
    set_default_store(saved_store)
    runner._CACHE.clear()
    runner._CACHE.update(saved_cache)


@pytest.fixture
def counting_pool(monkeypatch):
    """Swap the runner's ProcessPoolExecutor for one that counts the pools
    opened (``.pools``) and the cells submitted (``.submitted``)."""
    counts = SimpleNamespace(pools=0, submitted=0)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts.pools += 1
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            counts.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
    return counts


@pytest.fixture(autouse=True)
def _deterministic_random(request):
    saved = random.getstate()
    random.seed(zlib.crc32(request.node.nodeid.encode("utf-8")))
    yield
    random.setstate(saved)


def pytest_collection_modifyitems(config, items):
    seed = os.environ.get("REPRO_TEST_ORDER_SEED")
    if not seed:
        return
    random.Random(int(seed)).shuffle(items)