"""Fixture: ``from numpy import random`` reaches the global RNG — must fire."""

from numpy import random


def jitter(n):
    return random.laplace(size=n)  # FIRES: numpy.random.laplace
