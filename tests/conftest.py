import multiprocessing

import pytest

import polysym as ps
import polysym.oracle as oracle
import polysym.polygon_core as polygon_core


@pytest.fixture(scope="session")
def census9():
    return ps.census_full(9)


@pytest.fixture(scope="session")
def census12():
    # About 1 s on one core; shared by the classification, oracle and
    # acceptance tests.
    return ps.census_full(12)


@pytest.fixture
def opened_pools(monkeypatch):
    """The size of every pool opened through ``multiprocessing.Pool``
    during the test, in order, with two usable CPUs for ``oracle``."""
    monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
    sizes = []
    real = multiprocessing.Pool

    def recording(processes=None, *args, **kwargs):
        sizes.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", recording)
    return sizes


@pytest.fixture
def always_pool(monkeypatch):
    """Pools cost nothing to start, so a census given two jobs, two shards
    and two usable CPUs opens one however small its work."""
    monkeypatch.setattr(oracle, "POOL_START_S", 0)


@pytest.fixture
def failure_lengths(monkeypatch):
    """The length of every KMP failure function the side kernel builds
    during the test, in order."""
    lengths = []
    real = polygon_core._failure

    def counted(seq):
        lengths.append(len(seq))
        return real(seq)

    monkeypatch.setattr(polygon_core, "_failure", counted)
    return lengths
