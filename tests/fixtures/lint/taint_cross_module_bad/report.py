"""FIXTURE (bad), with ``records.py``: see that module's docstring."""

from .records import get


def mid(counts):
    return get(counts)


def load(counts, logger):
    total = mid(counts)
    logger.info("total %s", total)  # FIRES: raw count in a log call
