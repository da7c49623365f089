"""The seeded generator: deterministic, seed-sensitive, in range."""

import os

import numpy as np
import pandas as pd
import pytest

from fcrepo3_rdf_extractor_ray.sources.pages import DAY_US, PAGES_EPOCH_US
from kgbench.corpus import (DOC_ID_BOUND, WORKLOADS, check_doc_ids,
                            content_hash, make_documents, write_corpus)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_corpus_other_seed_other_corpus(name):
    a = make_documents(WORKLOADS[name], seed=7, scale=0.05)
    b = make_documents(WORKLOADS[name], seed=7, scale=0.05)
    c = make_documents(WORKLOADS[name], seed=8, scale=0.05)
    assert a.equals(b)
    assert content_hash(a) == content_hash(b)
    assert not a.equals(c)
    assert content_hash(a) != content_hash(c)


def test_corpus_dirs_are_named_by_content(tmp_path):
    a = write_corpus(str(tmp_path), "short_pages", 1, scale=0.02)
    b = write_corpus(str(tmp_path), "short_pages", 2, scale=0.02)
    assert os.path.basename(a.sf_dir) != os.path.basename(b.sf_dir)
    docs = make_documents(WORKLOADS["short_pages"], 1, scale=0.02)
    assert content_hash(docs)[:16] in os.path.basename(a.sf_dir)
    assert os.path.exists(os.path.join(a.sf_dir, "documents.parquet"))


def test_doc_ids_stay_below_the_timestamp_bound():
    docs = make_documents(WORKLOADS["short_pages"], seed=3)
    assert docs["doc_id"].to_numpy().max() < DOC_ID_BOUND
    # the bound is tight: the page timestamp of the last id still fits a
    # pandas timestamp, the next one overflows
    pd.to_datetime(PAGES_EPOCH_US + (DOC_ID_BOUND - 1) * DAY_US, unit="us")
    with pytest.raises(pd.errors.OutOfBoundsDatetime):
        pd.to_datetime(PAGES_EPOCH_US + DOC_ID_BOUND * DAY_US, unit="us")


@pytest.mark.parametrize("bad", [DOC_ID_BOUND, -1])
def test_out_of_range_doc_id_raises(bad):
    check_doc_ids(np.array([0, DOC_ID_BOUND - 1]))
    with pytest.raises(ValueError):
        check_doc_ids(np.array([0, bad]))
