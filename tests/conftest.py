"""Fixtures shared by the test modules."""
from __future__ import annotations

import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Hold int() to Python's default of 4300 digits per conversion, so a
    test of a longer integer does not depend on the environment's limit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)
