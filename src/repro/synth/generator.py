"""Planted-structure synthetic tabular data.

The paper's experiments run on US Census (1990), Diabetes (UCI) and the 2018
Stack Overflow survey, none of which is available offline.  What the
experiments actually measure — attribute selection quality as a function of
noise scale vs. histogram count magnitudes — depends on (a) the number of
attributes and their domain sizes, (b) row counts / cluster sizes, and (c) the
existence of attributes whose per-cluster distributions genuinely differ.
This module generates datasets with exactly those properties: a latent group
per row, *signal* attributes whose conditional distribution shifts by group,
and *noise* attributes shared across groups.

:class:`PlantedClusterGenerator` is the engine; the dataset-shaped frontends
live in :mod:`repro.synth.diabetes`, :mod:`repro.synth.census` and
:mod:`repro.synth.stackoverflow`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset.schema import Attribute, Schema
from ..dataset.table import Dataset
from ..privacy.rng import ensure_rng


def peaked_distribution(
    domain_size: int, peak: int, sharpness: float = 0.55, background: float = 0.15
) -> np.ndarray:
    """A unimodal categorical distribution peaking at ``peak``.

    Mass decays geometrically with distance from the peak (ratio
    ``sharpness``) and is mixed with a uniform ``background`` component so no
    domain value has probability zero — keeping sufficiency denominators
    well-behaved and histograms realistic.
    """
    if not 0 <= peak < domain_size:
        raise ValueError("peak must lie inside the domain")
    if not 0.0 < sharpness < 1.0:
        raise ValueError("sharpness must be in (0, 1)")
    if not 0.0 <= background < 1.0:
        raise ValueError("background must be in [0, 1)")
    idx = np.arange(domain_size)
    core = sharpness ** np.abs(idx - peak)
    core = core / core.sum()
    return background / domain_size + (1.0 - background) * core


@dataclass(frozen=True)
class AttributeModel:
    """An attribute together with its per-group conditional distributions."""

    attribute: Attribute
    probs: np.ndarray  # (n_groups, domain_size); rows sum to 1
    is_signal: bool

    def __post_init__(self) -> None:
        if self.probs.ndim != 2 or self.probs.shape[1] != self.attribute.domain_size:
            raise ValueError(
                f"probs for {self.attribute.name!r} must be (groups, domain)"
            )
        sums = self.probs.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-8):
            raise ValueError(f"rows of probs for {self.attribute.name!r} must sum to 1")


def signal_model(
    name: str,
    domain: tuple[str, ...],
    n_groups: int,
    rng: np.random.Generator,
    sharpness: float = 0.55,
    background: float = 0.15,
) -> AttributeModel:
    """Distinct peaked distribution per group (peaks spread over the domain)."""
    m = len(domain)
    probs = np.empty((n_groups, m))
    offsets = rng.permutation(n_groups)
    for g in range(n_groups):
        peak = int(round(offsets[g] * (m - 1) / max(n_groups - 1, 1)))
        probs[g] = peaked_distribution(m, peak, sharpness, background)
    return AttributeModel(Attribute(name, domain), probs, is_signal=True)


def noise_model(
    name: str,
    domain: tuple[str, ...],
    n_groups: int,
    rng: np.random.Generator,
    concentration: float = 4.0,
) -> AttributeModel:
    """One shared Dirichlet-sampled distribution for every group."""
    m = len(domain)
    shared = rng.dirichlet(np.full(m, concentration))
    probs = np.tile(shared, (n_groups, 1))
    return AttributeModel(Attribute(name, domain), probs, is_signal=False)


@dataclass(frozen=True)
class PlantedClusterGenerator:
    """Sampler for tuples with latent group structure."""

    models: tuple[AttributeModel, ...]
    group_weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.group_weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0 or np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("group_weights must be a probability vector")
        groups = {m.probs.shape[0] for m in self.models}
        if groups != {w.size}:
            raise ValueError("all attribute models must match the number of groups")

    @property
    def schema(self) -> Schema:
        return Schema(tuple(m.attribute for m in self.models))

    @property
    def n_groups(self) -> int:
        return int(np.asarray(self.group_weights).size)

    def generate(
        self, n_rows: int, rng: np.random.Generator | int | None = None
    ) -> tuple[Dataset, np.ndarray]:
        """Sample ``n_rows`` tuples; returns ``(dataset, latent group labels)``."""
        if n_rows < 0:
            raise ValueError("n_rows must be >= 0")
        gen = ensure_rng(rng)
        groups = gen.choice(self.n_groups, size=n_rows, p=self.group_weights)
        columns: dict[str, np.ndarray] = {}
        for model in self.models:
            m = model.attribute.domain_size
            col = np.empty(n_rows, dtype=np.int64)
            for g in range(self.n_groups):
                mask = groups == g
                k = int(mask.sum())
                if k:
                    col[mask] = gen.choice(m, size=k, p=model.probs[g])
            columns[model.attribute.name] = col
        return Dataset(self.schema, columns), groups.astype(np.int64)


def build_generator(
    signal_specs: list[tuple[str, tuple[str, ...]]],
    noise_specs: list[tuple[str, tuple[str, ...]]],
    n_groups: int,
    rng: np.random.Generator | int | None = None,
    group_weights: np.ndarray | None = None,
    sharpness: float = 0.55,
    background: float = 0.15,
) -> PlantedClusterGenerator:
    """Assemble a generator from ``(name, domain)`` specs."""
    gen = ensure_rng(rng)
    models: list[AttributeModel] = []
    for name, domain in signal_specs:
        models.append(signal_model(name, domain, n_groups, gen, sharpness, background))
    for name, domain in noise_specs:
        models.append(noise_model(name, domain, n_groups, gen))
    if group_weights is None:
        raw = gen.dirichlet(np.full(n_groups, 8.0))
        group_weights = raw
    return PlantedClusterGenerator(tuple(models), np.asarray(group_weights))


def generic_domain(prefix: str, size: int) -> tuple[str, ...]:
    """A synthetic categorical domain ``prefix_0 .. prefix_{size-1}``."""
    if size < 1:
        raise ValueError("domain size must be >= 1")
    return tuple(f"{prefix}_{i}" for i in range(size))
