from fractions import Fraction

import pytest


@pytest.fixture
def fraction_count(monkeypatch):
    """Counts `Fraction.__new__` calls, wrapped as perfbench's tracer wraps it."""
    count = [0]
    new = Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return count
