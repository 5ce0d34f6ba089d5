import pytest

import polysym as ps
import polysym.polygon_core as polygon_core


@pytest.fixture(scope="session")
def census9():
    return ps.census_full(9)


@pytest.fixture(scope="session")
def census12():
    # About 0.4 s on one core; shared by the classification, oracle and
    # acceptance tests.
    return ps.census_full(12)


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
