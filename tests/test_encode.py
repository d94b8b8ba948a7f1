"""Unit tests for the clustering encoders."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.encode import IdentityEncoder, MinMaxEncoder, StandardEncoder
from repro.dataset import Attribute, Dataset, Schema

from helpers import make_dataset


class TestStandardEncoder:
    def test_zero_mean_unit_std(self):
        d = make_dataset()
        enc = StandardEncoder.fit(d)
        x = enc.transform(d)
        assert np.allclose(x.mean(axis=0), 0.0, atol=1e-12)
        for j in range(x.shape[1]):
            col = x[:, j]
            if col.std() > 0:
                assert col.std() == pytest.approx(1.0)

    def test_constant_column_passes_through(self):
        d = make_dataset([("red", "S", "no"), ("red", "M", "no")])
        enc = StandardEncoder.fit(d)
        x = enc.transform(d)
        assert np.isfinite(x).all()

    def test_subset_of_names(self):
        d = make_dataset()
        enc = StandardEncoder.fit(d, names=["flag"])
        assert enc.dim == 1
        assert enc.transform(d).shape == (len(d), 1)

    def test_transform_new_data_uses_fitted_stats(self):
        d = make_dataset()
        enc = StandardEncoder.fit(d)
        single = d.subset(np.array([0]))
        x = enc.transform(single)
        full = enc.transform(d)
        assert np.allclose(x[0], full[0])


class TestMinMaxEncoder:
    def test_range_is_minus_one_to_one(self):
        d = make_dataset()
        enc = MinMaxEncoder.fit(d)
        x = enc.transform(d)
        assert x.min() >= -1.0 - 1e-12
        assert x.max() <= 1.0 + 1e-12

    def test_bounds_are_data_independent(self):
        # The encoder must use domain bounds, not data min/max, so that
        # DP-k-means noise calibration does not leak (Section 2's
        # data-independent domains).
        d_full = make_dataset()
        d_sub = d_full.subset(np.array([0]))  # single row
        enc_full = MinMaxEncoder.fit(d_full)
        enc_sub = MinMaxEncoder.fit(d_sub)
        assert np.allclose(enc_full.highs, enc_sub.highs)
        assert np.allclose(
            enc_full.transform(d_sub), enc_sub.transform(d_sub)
        )

    def test_extremes_map_to_bounds(self):
        d = make_dataset()
        enc = MinMaxEncoder.fit(d, names=["size"])
        x = enc.transform(d)
        # "S" (code 0) -> -1; "XL" (code 3 = |dom|-1) -> +1.
        assert x.min() == pytest.approx(-1.0)
        assert x.max() == pytest.approx(1.0)


class TestIdentityEncoder:
    def test_returns_raw_codes(self):
        d = make_dataset()
        enc = IdentityEncoder.fit(d)
        assert np.array_equal(enc.transform(d), d.to_matrix())
        assert enc.dim == 3


# --------------------------------------------------------------------------- #
# bit-identity with the row-major expressions the lookup tables replace
# --------------------------------------------------------------------------- #


@st.composite
def coded_tables(draw):
    """A random dataset plus an ordered subset of its attribute names.

    Domains of 1-40 values (size 1 is a single-value domain); any column may
    be forced constant, so zero-variance columns show up at every size.
    """
    n = draw(st.sampled_from([0, 1, 17, 5000]))
    specs = draw(
        st.lists(st.tuples(st.integers(1, 40), st.booleans()), min_size=1, max_size=6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = Schema(
        tuple(
            Attribute(f"a{i}", tuple(f"v{j}" for j in range(m)))
            for i, (m, _) in enumerate(specs)
        )
    )
    columns = {
        f"a{i}": (
            np.full(n, rng.integers(m)) if constant else rng.integers(0, m, size=n)
        )
        for i, (m, constant) in enumerate(specs)
    }
    picked = draw(st.lists(st.sampled_from(range(len(specs))), unique=True))
    return Dataset(schema, columns), tuple(f"a{i}" for i in picked)


def row_major(dataset, names, dtype=np.float64):
    """The former ``to_matrix``: a row-major stack of cast code columns."""
    if not names:
        return np.empty((len(dataset), 0), dtype=dtype)
    return np.stack([dataset.column(n).astype(dtype) for n in names], axis=1)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(coded_tables())
def test_matrices_match_row_major_stack(case):
    dataset, names = case
    assert_same_array(dataset.to_matrix(names), row_major(dataset, names))
    assert_same_array(
        dataset.code_matrix(names), row_major(dataset, names, np.int64)
    )


@settings(max_examples=60, deadline=None)
@given(coded_tables())
def test_encoders_match_row_major_expressions(case):
    dataset, names = case
    mat = row_major(dataset, names)

    std = StandardEncoder.fit(dataset, names)
    assert_same_array(std.transform(dataset), (mat - std.means) / std.scales)

    mm = MinMaxEncoder.fit(dataset, names)
    span = np.where(mm.highs > mm.lows, mm.highs - mm.lows, 1.0)
    assert_same_array(mm.transform(dataset), 2.0 * (mat - mm.lows) / span - 1.0)

    assert_same_array(IdentityEncoder.fit(dataset, names).transform(dataset), mat)


def test_lookup_table_must_cover_the_domain():
    d = make_dataset()
    with pytest.raises(ValueError, match="does not cover"):
        d.lookup_matrix(["size"], [np.zeros(3)])
