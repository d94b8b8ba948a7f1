"""Fixture: ``import numpy.random as npr`` reaches the global RNG — must fire."""

import numpy.random as npr


def jitter(n):
    return npr.normal(size=n)  # FIRES: numpy.random.normal
