"""FIXTURE (bad), with ``report.py``: a raw count returned across modules.

Both modules define a ``load``.  The count's return trace passes through
this module's ``load`` and ``get`` before ``report.mid`` returns it to
``report.load``, which is a different function of the same name and
must still be reported.
"""


def load(counts):
    return counts.total()  # source: raw count


def get(counts):
    return load(counts)
