import functools

import pytest

from polysmooth.oracles import PPLUS_ORACLE_LIMIT, pplus_oracle


@functools.cache
def _factorint_pplus(v):
    from sympy import factorint

    return max(factorint(v))


def _pplus_reference(value):
    """P+(|value|): pplus_oracle within its domain, sympy's factorint (once
    per value) past it."""
    v = abs(value)
    return pplus_oracle(v) if v <= PPLUS_ORACLE_LIMIT else _factorint_pplus(v)


@pytest.fixture
def pplus_ref():
    return _pplus_reference
