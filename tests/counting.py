"""Counters for Fraction constructions and a wall-clock limit, shared by the
work-bound tests."""

import signal
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


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time.

    The handler's error is raised again from here, with no context, so the
    report never formats the frame the signal interrupted: a generator's
    frame there has no line number, and pytest cannot format it."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        raise TimeoutError(f"over {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
