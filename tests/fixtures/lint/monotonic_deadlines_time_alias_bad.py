"""Fixture: ``import time as t`` still reads the wall clock — must fire."""

import time as t


def deadline_after(timeout_s):
    return t.time() + timeout_s  # FIRES: time.time
