"""Dataset substrate: synthetic counterparts of the paper's datasets."""

from .geography import make_geography, sample_truths
from .synthetic import (
    BIRTHPLACES_PROFILES,
    SourceProfile,
    make_birthplaces,
    make_heritages,
    make_sparse_dataset,
)
from .stock import ATTRIBUTES, claims_to_dataset, make_stock_claims
from .registry import dataset_names, load_dataset

__all__ = [
    "make_geography",
    "sample_truths",
    "make_birthplaces",
    "make_heritages",
    "make_sparse_dataset",
    "SourceProfile",
    "BIRTHPLACES_PROFILES",
    "make_stock_claims",
    "claims_to_dataset",
    "ATTRIBUTES",
    "load_dataset",
    "dataset_names",
]
