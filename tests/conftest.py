import csv

import pytest


@pytest.fixture
def field_limit_250():
    """``csv.field_size_limit()`` at 250 for one test."""
    old = csv.field_size_limit(250)
    yield 250
    csv.field_size_limit(old)
