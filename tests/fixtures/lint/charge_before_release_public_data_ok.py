"""Fixture: a public synthetic table is built before the charge — clean.

The ``repro demo`` shape: ``diabetes_like`` draws from a seeded generator
to build a *public* demo table before any accountant exists.  It is
declared data-independent in the privacy manifest, so calling it first is
not a release.  The mechanism draw after the charge is the only release.
"""

import numpy as np


def diabetes_like(n_rows, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=n_rows)


def run_demo(rows, mechanism, gen, make_accountant):
    data = diabetes_like(rows, seed=7)
    accountant = make_accountant()
    accountant.spend(1.0, "counts")
    return mechanism.release(data, gen)
