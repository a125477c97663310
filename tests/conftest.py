import math

import numpy as np
import pytest

from polyherglotz import CutPlanePoint


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_cut_point(rng, n, signs=None):
    """A random point with |Re| <= 5 and 0.1 <= |Im| <= 5."""
    if signs is None:
        signs = rng.choice([-1, 1], size=n)
    coords = tuple(
        complex(rng.uniform(-5, 5), s * math.exp(rng.uniform(math.log(0.1), math.log(5))))
        for s in signs
    )
    return CutPlanePoint(coords)


def random_upper_point(rng, n):
    return random_cut_point(rng, n, signs=[1] * n)


def count_calls(monkeypatch, owner, name):
    """Wrap `owner.name` for the test and record each call.

    Returns the list of calls, in order, as (args, kwargs) pairs; the
    wrapped attribute still does its work.  A method patched on its class
    records the instance as args[0].
    """
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls
