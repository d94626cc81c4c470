"""Shared fixtures for the test suite."""

import pytest

from heckeblocks import AffineRank, FockContext, null_root


@pytest.fixture
def rank1():
    return AffineRank(1)


@pytest.fixture
def rank2():
    return AffineRank(2)


@pytest.fixture
def ctx11(rank1):
    """Level-two context with the two charges adjacent, smallest rank."""
    return FockContext(rank1, 1, level=2)


@pytest.fixture
def ctx21(rank2):
    return FockContext(rank2, 1, level=2)


@pytest.fixture
def delta1(rank1):
    return null_root(rank1)
