"""Seeded synthetic counterparts of the paper's crawled datasets.

The original *BirthPlaces* (kdd.snu.ac.kr) and *Heritages* (UNESCO + Bing)
crawls are not redistributable/available offline, so we generate datasets that
reproduce their published statistics and — more importantly — the structural
properties the algorithms key on:

* sources have individual reliability **and** generalization tendencies
  (Figure 1): a claim is exact with probability ``phi1``, a uniformly chosen
  ancestor of the truth with probability ``phi2``, wrong otherwise;
* wrong values are not uniform: a per-object *misinformation* value attracts
  a large share of wrong claims (the dependency Pop2/Pop3 models);
* BirthPlaces: few (7) high-coverage sources, ~13.5k records over 6,005
  objects, hierarchy ≈5k nodes height 5, mean source accuracy ≈ 0.72;
* Heritages: a long tail of ~1.6k sources with <10 claims each over 785
  objects, hierarchy ≈1k nodes height 6, mean source accuracy ≈ 0.58.

Object and hierarchy counts default to the paper's but can be scaled down
(``size`` parameter) for fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.model import Record, TruthDiscoveryDataset
from ..hierarchy.tree import Hierarchy, Value
from .geography import make_geography, sample_truths


@dataclass(frozen=True)
class SourceProfile:
    """Generative description of one source.

    Attributes
    ----------
    name:
        Source identifier.
    phi:
        ``(exact, generalized, wrong)`` claim probabilities; must sum to 1.
    coverage:
        Probability that this source claims about any given object.
    """

    name: str
    phi: Tuple[float, float, float]
    coverage: float

    def __post_init__(self) -> None:
        if abs(sum(self.phi) - 1.0) > 1e-9:
            raise ValueError(f"phi must sum to 1, got {self.phi}")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")


# Calibrated on Figure 5: two near-complete sources, five small ones, some of
# which generalize heavily; claim counts ~ (5975, 5272, 605, 340, 532, 399, 387).
BIRTHPLACES_PROFILES = (
    SourceProfile("source_1", (0.80, 0.10, 0.10), 0.995),
    SourceProfile("source_2", (0.84, 0.06, 0.10), 0.878),
    SourceProfile("source_3", (0.58, 0.32, 0.10), 0.101),
    SourceProfile("source_4", (0.62, 0.30, 0.08), 0.057),
    SourceProfile("source_5", (0.68, 0.24, 0.08), 0.089),
    SourceProfile("source_6", (0.78, 0.08, 0.14), 0.066),
    SourceProfile("source_7", (0.54, 0.38, 0.08), 0.064),
)


def _claim_value(
    truth: Value,
    hierarchy: Hierarchy,
    phi: Sequence[float],
    misinformation: Value,
    wrong_pool: List[Value],
    rng: np.random.Generator,
    misinformation_share: float = 0.6,
) -> Value:
    """Draw one claimed value per the three-case generative model (Sec 3.1)."""
    case = rng.choice(3, p=np.asarray(phi, dtype=float))
    if case == 1:
        ancestors = hierarchy.ancestors(truth)
        if ancestors:
            return ancestors[int(rng.integers(len(ancestors)))]
        case = 0  # depth-1 truth has no informative generalization
    if case == 0:
        return truth
    # Wrong claim: misinformation attracts a fixed share, the rest is uniform
    # over a pool of plausible-but-wrong values.
    if misinformation != truth and rng.random() < misinformation_share:
        return misinformation
    for _ in range(16):
        value = wrong_pool[int(rng.integers(len(wrong_pool)))]
        if value != truth:
            return value
    return misinformation if misinformation != truth else wrong_pool[0]


def _wrong_pool(hierarchy: Hierarchy, rng: np.random.Generator, size: int = 512) -> List[Value]:
    """A reusable pool of claimable (non-root) values for wrong claims."""
    nodes = [n for n in hierarchy.non_root_nodes() if hierarchy.depth(n) >= 1]
    if len(nodes) <= size:
        return nodes
    picks = rng.choice(len(nodes), size=size, replace=False)
    return [nodes[i] for i in picks]


def make_birthplaces(
    size: int = 6005,
    seed: int = 7,
    profiles: Sequence[SourceProfile] = BIRTHPLACES_PROFILES,
    hierarchy: Optional[Hierarchy] = None,
) -> TruthDiscoveryDataset:
    """Synthetic BirthPlaces-like dataset (6,005 objects, 7 sources by default).

    Every object is claimed by at least one source (objects nobody mentions
    do not enter a truth-discovery instance).
    """
    rng = np.random.default_rng(seed)
    if hierarchy is None:
        hierarchy = make_geography(
            height=5, branching=(4, 7, 6, 5, 2), rng=rng, max_nodes=5000
        )
    truths = sample_truths(hierarchy, size, rng, min_depth=2)
    objects = [f"person_{i}" for i in range(size)]
    gold = dict(zip(objects, truths))
    pool = _wrong_pool(hierarchy, rng)

    records: List[Record] = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        claimed_by_any = False
        for profile in profiles:
            if rng.random() >= profile.coverage:
                continue
            value = _claim_value(truth, hierarchy, profile.phi, misinformation, pool, rng)
            records.append(Record(obj, profile.name, value))
            claimed_by_any = True
        if not claimed_by_any:
            # Fall back to the highest-coverage source so the object exists.
            profile = max(profiles, key=lambda p: p.coverage)
            value = _claim_value(truth, hierarchy, profile.phi, misinformation, pool, rng)
            records.append(Record(obj, profile.name, value))
    return TruthDiscoveryDataset(hierarchy, records, gold=gold, name="birthplaces")


def make_heritages(
    size: int = 785,
    n_sources: int = 1577,
    seed: int = 11,
    hierarchy: Optional[Hierarchy] = None,
    mean_sources_per_object: float = 5.6,
) -> TruthDiscoveryDataset:
    """Synthetic Heritages-like dataset: long-tail sources, low mean accuracy.

    Source reliabilities are drawn so the mean source accuracy lands near the
    paper's 0.58; popularity over sources is Zipf-like so most sources make
    only a handful of claims — the regime where per-source reliability is hard
    to estimate and VOTE becomes competitive (Section 5.2).
    """
    rng = np.random.default_rng(seed)
    if hierarchy is None:
        hierarchy = make_geography(
            height=6, branching=(3, 4, 4, 3, 2, 2), rng=rng, max_nodes=1030
        )
    truths = sample_truths(hierarchy, size, rng, min_depth=2)
    objects = [f"site_{i}" for i in range(size)]
    gold = dict(zip(objects, truths))
    pool = _wrong_pool(hierarchy, rng)

    # Per-source trustworthiness: exact accuracy centred near the paper's
    # 0.58 source mean but with heavy spread; a strong generalization habit
    # so VOTE's GenAccuracy tops the chart as in Table 3.
    exact = np.clip(rng.beta(4.0, 4.0, size=n_sources), 0.05, 0.9)
    generalized = np.clip(rng.beta(3.0, 4.5, size=n_sources), 0.0, 1.0)
    generalized = np.minimum(generalized, 0.95 - exact)
    phis = np.stack([exact, generalized, 1.0 - exact - generalized], axis=1)

    # Zipf-like popularity over sources.
    popularity = 1.0 / np.arange(1, n_sources + 1) ** 0.65
    popularity /= popularity.sum()

    records: List[Record] = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        k = max(1, int(rng.poisson(mean_sources_per_object)))
        k = min(k, n_sources)
        chosen = rng.choice(n_sources, size=k, replace=False, p=popularity)
        for idx in chosen:
            value = _claim_value(truth, hierarchy, phis[idx], misinformation, pool, rng)
            records.append(Record(obj, f"site_source_{idx}", value))
    return TruthDiscoveryDataset(hierarchy, records, gold=gold, name="heritages")


def make_sparse_dataset(
    size: int = 5000,
    n_sources: int = 15000,
    seed: int = 29,
) -> TruthDiscoveryDataset:
    """Uniform sparse claim graph: five distinct sources per object, drawn
    uniformly (no Zipf head) from ``n_sources``.

    Claimant degree stays ~O(1), so a crowd round's dirty frontier cannot
    percolate through a popular source — the substrate of the incremental-EM
    and serving benchmarks. (:func:`make_birthplaces` is the opposite case:
    its two near-complete sources connect every object to every other.)
    """
    rng = np.random.default_rng(seed)
    hierarchy = make_geography(
        height=5, branching=(4, 6, 5, 4, 2), rng=rng, max_nodes=3000
    )
    truths = sample_truths(hierarchy, size, rng, min_depth=2)
    objects = [f"entity_{i}" for i in range(size)]
    gold = dict(zip(objects, truths))
    pool = _wrong_pool(hierarchy, rng)
    records: List[Record] = []
    for obj, truth in zip(objects, truths):
        misinformation = pool[int(rng.integers(len(pool)))]
        chosen = rng.choice(n_sources, size=5, replace=False)
        for idx in chosen:
            value = _claim_value(
                truth, hierarchy, (0.7, 0.2, 0.1), misinformation, pool, rng
            )
            records.append(Record(obj, f"src_{idx}", value))
    return TruthDiscoveryDataset(hierarchy, records, gold=gold, name="sparse")
