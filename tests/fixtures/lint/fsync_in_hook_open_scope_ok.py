"""Fixture: the draw follows the commit scope's exit — must not fire.

Every charge made in the scope is fsync'd as the ``with`` exits, before the
first draw.
"""

from repro.service.journal import commit_scope


def fund_then_release(accountant, mechanism, value, gen):
    with commit_scope():
        accountant.spend(0.1, "charge")
    return mechanism.randomise(value, gen)
