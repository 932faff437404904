"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so races show within a few rounds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def lowest_digit_limit():
    """The interpreter's lowest int -> str digit limit, 640, for one test, so
    decimal_digits and decimal_int convert every value from 641 digits on
    by themselves."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.fixture
def unlimited_str():
    """str() of an int with the int -> str digit limit lifted for that call only:
    the tests' reference for counts of any size."""

    def convert(value):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(before)

    return convert
