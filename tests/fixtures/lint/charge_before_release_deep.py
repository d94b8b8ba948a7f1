"""Fixture: the draw sits three call hops below ``fit`` — must fire.

``fit`` charges only after ``_prepare`` returns, and ``_prepare`` →
``_perturb`` → ``_sample`` reaches a Laplace draw first.  The rule follows
every resolved edge, however deep, so the finding lands on the
``self._prepare`` call in ``fit`` and its trace ends on the draw.
"""


class DeepDrawMechanism:
    def fit(self, data, gen, accountant):
        noisy = self._prepare(data, gen)
        accountant.spend(1.0, "fit")
        return noisy

    def _prepare(self, data, gen):
        return self._perturb(list(data), gen)

    def _perturb(self, rows, gen):
        return [r + n for r, n in zip(rows, self._sample(gen, len(rows)))]

    def _sample(self, gen, size):
        return gen.laplace(scale=1.0, size=size)
