import functools

import pytest

import polysym as ps
import polysym.polygon_core as polygon_core
from walks import chord_symmetry, undirected_cycles


@pytest.fixture(scope="session")
def census9():
    return ps.census_full(9)


@pytest.fixture(scope="session")
def census12():
    # About 0.13 s on one core; shared by the classification, oracle and
    # acceptance tests.
    return ps.census_full(12)


@pytest.fixture(scope="session")
def chord_scans():
    """``chord_scans(n)``: every Hamiltonian cycle on n vertices with its
    ``chord_symmetry``, scanned once per session for each n.  The kernel
    and census tests both read the n = 9 scan, the slowest (20,160
    cycles)."""
    return functools.cache(
        lambda n: [(t, chord_symmetry(t)) for t in undirected_cycles(n)]
    )


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
