"""Counters for Fraction constructions, shared by the work-counter tests."""

from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace


@contextmanager
def counted_fractions():
    """Count every Fraction construction inside the block, through
    ``Fraction.__new__``; on Python 3.11 the results of Fraction arithmetic
    are built through it too."""
    made = SimpleNamespace(count=0)
    saved = Fraction.__dict__["__new__"]
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.count += 1
        return real(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        yield made
    finally:
        Fraction.__new__ = saved


def counting_wrapper(monkeypatch, module):
    """Replace ``module.Fraction`` by a wrapper that counts its calls."""
    calls = []
    real = module.Fraction

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "Fraction", counting)
    return calls
