"""Fixture: mutually recursive helpers draw before the charge — must fire.

``_expand`` and ``_perturb`` call each other; ``_perturb`` recurses before
it draws.  The summaries must still settle, and ``fit`` gets exactly one
finding, on its ``self._expand`` call.
"""


class RecursiveDrawMechanism:
    def fit(self, data, gen, accountant, depth=3):
        noisy = self._expand(data, gen, depth)
        accountant.spend(1.0, "fit")
        return noisy

    def _expand(self, data, gen, depth):
        if depth <= 0:
            return data
        return self._perturb(data, gen, depth)

    def _perturb(self, data, gen, depth):
        data = self._expand(data, gen, depth - 1)
        return data + gen.laplace(size=len(data))
