"""Tests for the synthetic dataset generators and the registry."""

import numpy as np
import pytest

from repro.datasets import (
    BIRTHPLACES_PROFILES,
    SourceProfile,
    claims_to_dataset,
    dataset_names,
    load_dataset,
    make_birthplaces,
    make_geography,
    make_heritages,
    make_sparse_dataset,
    make_stock_claims,
    sample_truths,
)
from repro.eval import source_accuracy


class TestGeography:
    def test_height_respected(self):
        rng = np.random.default_rng(0)
        h = make_geography(height=4, branching=(3, 3, 3, 3), rng=rng)
        assert h.height <= 4
        h.validate()

    def test_max_nodes_cap(self):
        rng = np.random.default_rng(0)
        h = make_geography(height=5, branching=(5, 5, 5, 5, 5), rng=rng, max_nodes=200)
        assert len(h) <= 202

    def test_branching_must_cover_height(self):
        with pytest.raises(ValueError):
            make_geography(height=3, branching=(2, 2))

    def test_invalid_height(self):
        with pytest.raises(ValueError):
            make_geography(height=0)

    def test_sample_truths_depth_bias(self):
        rng = np.random.default_rng(0)
        h = make_geography(height=4, branching=(3, 3, 3, 3), rng=rng)
        truths = sample_truths(h, 100, rng, min_depth=2)
        assert len(truths) == 100
        assert all(h.depth(t) >= 2 for t in truths)

    def test_sample_truths_no_candidates_raises(self):
        rng = np.random.default_rng(0)
        h = make_geography(height=1, branching=(3,), rng=rng)
        with pytest.raises(ValueError):
            sample_truths(h, 5, rng, min_depth=3)


class TestSourceProfile:
    def test_phi_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SourceProfile("s", (0.5, 0.5, 0.5), 0.5)

    def test_coverage_bounds(self):
        with pytest.raises(ValueError):
            SourceProfile("s", (0.5, 0.3, 0.2), 0.0)

    def test_paper_profiles_valid(self):
        assert len(BIRTHPLACES_PROFILES) == 7
        for profile in BIRTHPLACES_PROFILES:
            assert sum(profile.phi) == pytest.approx(1.0)


class TestBirthplaces:
    def test_every_object_has_records(self):
        ds = make_birthplaces(size=200, seed=1)
        assert len(ds.objects) == 200
        assert all(ds.records_for(obj) for obj in ds.objects)

    def test_gold_complete(self):
        ds = make_birthplaces(size=100, seed=1)
        assert set(ds.gold) == set(ds.objects)
        for value in ds.gold.values():
            assert value in ds.hierarchy

    def test_seed_reproducible(self):
        d1 = make_birthplaces(size=100, seed=5)
        d2 = make_birthplaces(size=100, seed=5)
        assert list(d1.iter_records()) == list(d2.iter_records())

    def test_different_seeds_differ(self):
        d1 = make_birthplaces(size=100, seed=5)
        d2 = make_birthplaces(size=100, seed=6)
        assert list(d1.iter_records()) != list(d2.iter_records())

    def test_seven_sources(self):
        ds = make_birthplaces(size=300, seed=1)
        assert len(ds.sources) == 7

    def test_claims_per_object_matches_paper_ratio(self):
        ds = make_birthplaces(size=500, seed=1)
        # paper: 13510 records / 6005 objects ~ 2.25
        assert 1.8 < ds.num_records / len(ds.objects) < 2.7

    def test_sources_have_generalization_tendency(self):
        """The Figure 1 property: some sources sit above the diagonal."""
        ds = make_birthplaces(size=500, seed=1)
        tendencies = []
        for source in ds.sources:
            stats = source_accuracy(ds, source)
            tendencies.append(stats["gen_accuracy"] - stats["accuracy"])
        assert max(tendencies) > 0.1

    def test_hierarchy_height(self):
        ds = make_birthplaces(size=50, seed=1)
        assert ds.hierarchy.height == 5


class TestHeritages:
    def test_long_tail_sources(self):
        ds = make_heritages(size=150, n_sources=200, seed=2)
        claims_per_source = [
            len(ds.objects_of_source(s)) for s in ds.sources
        ]
        assert np.mean(claims_per_source) < 15

    def test_gold_complete(self):
        ds = make_heritages(size=80, n_sources=100, seed=2)
        assert set(ds.gold) == set(ds.objects)

    def test_hierarchy_height(self):
        ds = make_heritages(size=50, n_sources=60, seed=2)
        assert ds.hierarchy.height == 6

    def test_source_accuracy_lower_than_birthplaces(self):
        """Heritages' mean source accuracy targets the paper's ~0.58."""
        ds = make_heritages(size=200, n_sources=300, seed=2)
        accuracies = [
            source_accuracy(ds, s)["accuracy"]
            for s in ds.sources
            if source_accuracy(ds, s)["claims"] >= 3
        ]
        assert 0.3 < float(np.mean(accuracies)) < 0.75


class TestSparse:
    CLAIMS_PER_OBJECT = 5

    def _records(self, ds):
        return [(r.object, r.source, r.value) for r in ds.iter_records()]

    def test_same_seed_same_records(self):
        a = make_sparse_dataset(size=120, n_sources=400, seed=3)
        b = make_sparse_dataset(size=120, n_sources=400, seed=3)
        assert self._records(a) == self._records(b)
        assert a.gold == b.gold
        other = make_sparse_dataset(size=120, n_sources=400, seed=4)
        assert self._records(other) != self._records(a)

    def test_every_object_has_distinct_sources(self):
        ds = make_sparse_dataset(size=120, n_sources=400, seed=3)
        assert len(ds.objects) == 120
        for obj in ds.objects:
            assert len(ds.records_for(obj)) == self.CLAIMS_PER_OBJECT


class TestStock:
    def test_attributes_validated(self):
        with pytest.raises(ValueError):
            make_stock_claims("volume")

    def test_claims_and_gold_align(self):
        claims, gold = make_stock_claims("eps", n_objects=50, seed=3)
        assert set(claims) == set(gold)
        assert all(per_obj for per_obj in claims.values())

    def test_seeded_reproducible(self):
        c1, g1 = make_stock_claims("eps", n_objects=30, seed=3)
        c2, g2 = make_stock_claims("eps", n_objects=30, seed=3)
        assert c1 == c2 and g1 == g2

    def test_claims_to_dataset_canonicalises(self):
        claims, gold = make_stock_claims("open_price", n_objects=30, seed=3)
        ds = claims_to_dataset(claims, gold)
        ds.hierarchy.validate()
        assert set(ds.gold) == set(gold)
        assert len(ds.objects) == 30

    def test_outliers_present(self):
        claims, gold = make_stock_claims("eps", n_objects=300, seed=3)
        outliers = 0
        for obj, per_obj in claims.items():
            truth = gold[obj]
            outliers += sum(
                1 for v in per_obj.values() if abs(v) > 5 * abs(truth) + 1e-9
            )
        assert outliers > 0


class TestRegistry:
    def test_names(self):
        assert set(dataset_names()) == {"birthplaces", "heritages", "stock"}

    def test_load_birthplaces(self):
        ds = load_dataset("birthplaces", size=50, seed=1)
        assert ds.name == "birthplaces"
        assert len(ds.objects) == 50

    def test_load_case_insensitive(self):
        ds = load_dataset("Heritages", size=30, n_sources=40, seed=1)
        assert ds.name == "heritages"

    def test_load_stock_with_attribute(self):
        ds = load_dataset("stock", attribute="eps", n_objects=20)
        assert ds.name == "stock-eps"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("imagenet")
