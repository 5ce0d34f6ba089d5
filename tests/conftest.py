import pytest

import polysym as ps


@pytest.fixture(scope="session")
def census9():
    return ps.census_full(9)


@pytest.fixture(scope="session")
def census12():
    # 15-20 s on one core; shared by the classification and acceptance tests.
    return ps.census_full(12)
