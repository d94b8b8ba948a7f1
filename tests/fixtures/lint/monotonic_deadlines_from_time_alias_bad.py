"""Fixture: ``from time import time as now`` still reads the wall clock — must fire."""

from time import time as now


def deadline_after(timeout_s):
    return now() + timeout_s  # FIRES: time.time
