"""Differentially private histogram release — the ``M_hist`` of Algorithm 2.

DPClustX is agnostic to the histogram mechanism ("can be instantiated with
any DP histogram generation mechanism", Section 2.1); the paper's experiments
use the Geometric mechanism as implemented by diffprivlib.  We provide:

* :class:`GeometricHistogram` — the default, adding two-sided geometric noise
  to every count (sensitivity 1 per count under add/remove-one neighboring,
  i.e. a per-bin L1 sensitivity of 1, since one tuple touches one bin);
* :class:`LaplaceHistogram` — real-valued alternative;
* both optionally clamp negatives to zero (post-processing, free).

Every mechanism subclasses :class:`HistogramMechanism` and draws noise in
one method, ``release_blocks(blocks, rng)``, which releases a sequence of
``(R, m)`` count matrices row by row from one generator.  The base derives
the rest from it: ``release(counts, rng)`` for one pre-computed count vector
and ``release_column(dataset, attr, rng)`` matching the paper's
``M_hist(pi_A(D), eps_hist)`` signature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..dataset.table import Dataset
from .budget import check_epsilon
from .manifest import register_sanitizer
from .rng import ensure_rng


def as_blocks(blocks: "Sequence[np.ndarray]", dtype) -> "list[np.ndarray]":
    """``blocks`` as ``dtype`` arrays; each must be an ``(R, m)`` matrix."""
    mats = [np.asarray(b, dtype=dtype) for b in blocks]
    if any(m.ndim != 2 for m in mats):
        raise ValueError("every block must be an (R, m) matrix")
    return mats


def _flatten(mats: "Sequence[np.ndarray]", dtype) -> np.ndarray:
    """The blocks' counts end to end, in row-major order."""
    return np.concatenate([m.ravel() for m in mats] or [np.empty(0, dtype)])


def _split(flat: np.ndarray, mats: "Sequence[np.ndarray]") -> "list[np.ndarray]":
    """Inverse of :func:`_flatten`: one view of ``flat`` per block."""
    out = []
    pos = 0
    for m in mats:
        out.append(flat[pos : pos + m.size].reshape(m.shape))
        pos += m.size
    return out


@dataclass(frozen=True)
class HistogramMechanism:
    """``M_hist``: an eps-DP histogram release (Section 2.1).

    Subclasses implement :meth:`release_blocks`, the only method that draws
    noise.  Rows are released in order from one generator, and each row
    spends ``epsilon``: rows over disjoint data (the clusters) compose in
    parallel, rows over the same data sequentially, as the caller charges.
    """

    epsilon: float

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)

    def release_blocks(
        self,
        blocks: "Sequence[np.ndarray]",
        rng: np.random.Generator | int | None = None,
    ) -> "list[np.ndarray]":
        """Release every row of a sequence of ``(R_i, m_i)`` count matrices."""
        raise NotImplementedError

    def release(
        self, counts: np.ndarray, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Release a count array of any shape as one row."""
        counts = np.asarray(counts)
        noisy = self.release_blocks([counts.reshape(1, -1)], rng)[0]
        return noisy.reshape(counts.shape)

    def release_column(
        self,
        dataset: Dataset,
        attribute: str,
        rng: np.random.Generator | int | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """``M_hist(pi_A(D), eps)`` over the full domain ``dom(A)``."""
        return self.release(dataset.histogram(attribute, mask=mask), rng)

    def with_epsilon(self, epsilon: float) -> "HistogramMechanism":
        return replace(self, epsilon=epsilon)


@dataclass(frozen=True)
class GeometricHistogram(HistogramMechanism):
    """Per-bin two-sided geometric noise (the paper's default ``M_hist``)."""

    clamp_negative: bool = True

    def release_blocks(
        self,
        blocks: "Sequence[np.ndarray]",
        rng: np.random.Generator | int | None = None,
    ) -> "list[np.ndarray]":
        """Release ``(R_i, m_i)`` count matrices from one geometric draw.

        Each count gets the difference of two one-sided geometric draws.
        One flat sample is consumed row by row: a row of ``m`` counts takes
        ``m`` draws for the positive side, then ``m`` for the negative one,
        the order of releasing the rows one at a time.
        """
        mats = as_blocks(blocks, np.int64)
        gen = ensure_rng(rng)
        p = 1.0 - float(np.exp(-self.epsilon))
        # A row of width m whose first count has flat index s owns draws
        # [2s, 2s + 2m): count k of it takes draw k + s, minus draw k + s + m.
        widths = np.repeat(
            np.array([m.shape[1] for m in mats], dtype=np.intp),
            [m.shape[0] for m in mats],
        )
        pos = np.arange(widths.sum()) + np.repeat(np.cumsum(widths) - widths, widths)
        draws = gen.geometric(p, size=2 * pos.size)
        noisy = _flatten(mats, np.int64)
        noisy += draws[pos]
        noisy -= draws[pos + np.repeat(widths, widths)]
        if self.clamp_negative:
            np.maximum(noisy, 0, out=noisy)
        return _split(noisy.astype(np.float64), mats)

    def expected_l1_error(self, domain_size: int) -> float:
        """Expected L1 noise mass over a ``domain_size``-bin histogram."""
        a = float(np.exp(-self.epsilon))
        # E|Z| for the two-sided geometric with decay alpha.
        per_bin = 2.0 * a / (1.0 - a * a)
        return per_bin * domain_size


@dataclass(frozen=True)
class LaplaceHistogram(HistogramMechanism):
    """Per-bin Laplace(1/eps) noise — the classical real-valued variant."""

    clamp_negative: bool = True

    def release_blocks(
        self,
        blocks: "Sequence[np.ndarray]",
        rng: np.random.Generator | int | None = None,
    ) -> "list[np.ndarray]":
        """Release ``(R_i, m_i)`` count matrices from one Laplace draw,
        consumed block by block in row-major order."""
        mats = as_blocks(blocks, np.float64)
        gen = ensure_rng(rng)
        noisy = _flatten(mats, np.float64)
        noisy += gen.laplace(loc=0.0, scale=1.0 / self.epsilon, size=noisy.size)
        if self.clamp_negative:
            np.maximum(noisy, 0.0, out=noisy)
        return _split(noisy, mats)

    def expected_l1_error(self, domain_size: int) -> float:
        return domain_size / self.epsilon


def epsilon_for_l1_error(
    domain_size: int, target_l1: float, mechanism: str = "laplace"
) -> float:
    """Translate an accuracy requirement into a histogram budget.

    The paper notes DP histogram mechanisms "are accompanied by utility
    bounds, enabling accuracy control by translating accuracy requirements
    into the required privacy budget" (Section 2.1).  For Laplace the
    expected L1 error of an ``m``-bin histogram is ``m / eps``; solve for eps.
    For the geometric mechanism we invert its expected error numerically.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    if not target_l1 > 0:
        raise ValueError("target_l1 must be positive")
    if mechanism == "laplace":
        return domain_size / target_l1
    if mechanism == "geometric":
        lo, hi = 1e-8, 1e8
        for _ in range(200):
            mid = (lo * hi) ** 0.5
            err = GeometricHistogram(mid).expected_l1_error(domain_size)
            if err > target_l1:
                lo = mid
            else:
                hi = mid
        return hi
    raise ValueError(f"unknown mechanism {mechanism!r}")


# Self-register this backend's release surface with the taint manifest.
register_sanitizer("release")
register_sanitizer("release_blocks")
register_sanitizer("release_column")
