"""The query registry against its own contract: every oracle names a
registered query, and the registry's first 50 names, the window the
CORRECTNESS gate samples, are the 50 names CORRECTNESS_r05.json records,
in order. A deletion from the registry that shifts that window fails
here."""
import json
import os

import __ray_entry__ as em

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_oracle_names_a_query():
    missing = sorted(set(em.oracle_sql()) - set(em.queries()))
    assert not missing, missing


def test_first_50_queries_are_the_correctness_window():
    with open(os.path.join(_ROOT, "CORRECTNESS_r05.json")) as f:
        window = list(json.load(f))
    assert len(window) == 50
    assert list(em.queries())[:50] == window
