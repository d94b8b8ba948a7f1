"""Fixture: a noise draw inside an open journal commit scope — must fire.

The charges made in the scope are fsync'd only when the ``with`` exits, so
the draw below would run against a reservation that is not yet durable.
"""

from repro.service.journal import commit_scope


def fund_and_release(accountant, mechanism, value, gen):
    with commit_scope():
        accountant.spend(0.1, "charge")
        return mechanism.randomise(value, gen)
