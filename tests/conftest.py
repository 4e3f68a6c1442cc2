"""Fixtures shared by every test package."""

import pytest

from tests.targets.helpers import columnwise_floor


@pytest.fixture
def columnwise_any_width():
    """Codegen's columnwise tier runs on batches of any width (its lane
    floor is 1), so tests with narrow batches still cover it."""
    with columnwise_floor(1):
        yield
