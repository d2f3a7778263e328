"""One EM kernel, two views: the columnar E-step kernels must give bitwise the
same outputs on the whole :class:`~repro.data.columnar.ColumnarClaims`
encoding (what a full fit passes) and on a
:class:`~repro.data.columnar.FrontierView` covering every object (what a
frontier fit passes, at its largest). Full and incremental fits share the
kernels, so this pins that the two views present identical arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.workers import make_worker_pool
from repro.data.columnar import FrontierView
from repro.data.model import Answer
from repro.datasets import make_birthplaces, make_heritages
from repro.inference import TDHModel
from repro.inference.crh import _crh_step_kernel
from repro.inference.dawid_skene import _confusion_estep_kernel, _zencrowd_estep_kernel
from repro.inference.tdh import _tdh_estep_kernel


def _with_answers(dataset, n_workers=5, per_worker=30, seed=0):
    rng = np.random.default_rng(seed)
    objects = dataset.objects
    for worker in make_worker_pool(n_workers, seed=3):
        picks = rng.choice(len(objects), size=min(per_worker, len(objects)), replace=False)
        for i in picks:
            obj = objects[int(i)]
            dataset.add_answer(Answer(obj, worker.worker_id, worker.answer(dataset, obj, rng)))
    return dataset


DATASETS = {
    "birthplaces": lambda: _with_answers(make_birthplaces(size=300, seed=7)),
    "heritages": lambda: _with_answers(make_heritages(size=110, n_sources=200, seed=11)),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def views(request):
    col = DATASETS[request.param]().columnar()
    return col, FrontierView(col, np.arange(col.n_objects))


def _run_kernels(view, col):
    """Every kernel's outputs on ``view``, from state shared by both views."""
    rng = np.random.default_rng(5)
    trust = rng.dirichlet(np.ones(3), size=col.n_claimants)
    mu = col.initial_confidences_flat()
    pairs = col.pairs
    weight = mu[pairs.pair_slot]
    confusion_state = {
        "mu": mu,
        "cells": np.bincount(pairs.cell_index, weights=weight, minlength=pairs.n_cells),
        "totals": np.bincount(pairs.total_index, weights=weight, minlength=pairs.n_totals),
        "smoothing": 0.5,
    }
    miss_denom = np.maximum(view.sizes[view.claim_obj] - 1, 1).astype(np.float64)
    reliability = rng.uniform(0.05, 0.95, size=col.n_claimants)
    return {
        "tdh": _tdh_estep_kernel(
            view,
            TDHModel()._estep_consts(col, None if view is col else view),
            {"trust": trust, "mu": mu},
        ),
        "ds": _confusion_estep_kernel(view, {"with_prior": True}, confusion_state),
        "lfc": _confusion_estep_kernel(view, {"with_prior": False}, confusion_state),
        "zencrowd": _zencrowd_estep_kernel(
            view, {"miss_denom": miss_denom}, {"mu": mu, "r": reliability}
        ),
        "crh": _crh_step_kernel(view, {}, {"weights": rng.uniform(0.1, 3.0, col.n_claimants)}),
    }


def test_frontier_over_every_object_is_the_identity_view(views):
    col, fv = views
    assert np.array_equal(fv.slot_ids, np.arange(col.n_slots))
    assert np.array_equal(fv.claim_ids, np.arange(col.n_claims))


@pytest.mark.parametrize("kernel", ["tdh", "ds", "lfc", "zencrowd", "crh"])
def test_kernel_outputs_bitwise_equal_on_encoding_and_frontier_view(views, kernel):
    col, fv = views
    whole = _run_kernels(col, col)[kernel]
    frontier = _run_kernels(fv, col)[kernel]
    assert len(whole) == len(frontier)
    for a, b in zip(whole, frontier):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b
