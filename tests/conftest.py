"""Fixtures every test module shares."""

import pytest

from bruhatdiag.cayley import _LAST_IMAGE
from bruhatdiag.spaces import _LAST_STACK


@pytest.fixture(autouse=True)
def empty_table_caches():
    """Empty the kept split stack and Cayley image before each test, so a
    call count or a warning never depends on which test ran before."""
    _LAST_STACK.clear()
    _LAST_IMAGE.clear()
