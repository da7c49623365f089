"""Golden conformance at sf0.001: the Ray pipeline vs the DuckDB oracle
(the SidoraExamplesIT analog — set-based, order-free, duplicate-
insensitive comparison, SidoraExamplesIT.java:97-105), plus the
byte-identical-extracted-text-per-url invariant (BASELINE.json) and the
P/R ≥ 0.95 gate computed explicitly."""

import sys

sys.path.insert(0, "/root/repo")

import __ray_entry__ as entrymod
from tests.conftest import assert_frames_equivalent, to_pandas


def _oracle(duck, sql):
    return duck.execute(sql).df()


def test_all_queries_match_oracle(duck, sf_dir):
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    for name, sql in oracles.items():
        actual = qs[name](sf_dir)
        expected = _oracle(duck, sql)
        assert_frames_equivalent(actual, expected), name


def test_triple_precision_recall(duck, sf_dir):
    """P/R over the (subj, pred, obj, obj_datatype) set — the BASELINE
    metric, computed against the oracle-derived golden set."""
    got = to_pandas(entrymod.queries()["kg_quads_all"](sf_dir))
    want = _oracle(duck, entrymod.oracle_sql()["kg_quads_all"])
    key = ["subj", "pred", "obj", "obj_datatype"]
    g = set(map(tuple, got[key].itertuples(index=False)))
    w = set(map(tuple, want[key].itertuples(index=False)))
    precision = len(g & w) / len(g)
    recall = len(g & w) / len(w)
    assert precision >= 0.95 and recall >= 0.95
    assert precision == 1.0 and recall == 1.0  # we aim for exact


def test_byte_identical_text_per_url(duck, sf_dir):
    """Row-wise invariant: extracted text == stored golden text, byte for
    byte, for every well-formed page."""
    got = to_pandas(entrymod.queries()["kg_extracted_text"](sf_dir))
    want = _oracle(duck, entrymod.oracle_sql()["kg_extracted_text"])
    g = got.sort_values("url").reset_index(drop=True)
    w = want.sort_values("url").reset_index(drop=True)
    assert len(g) == len(w) and len(g) > 0
    for a, b in zip(g["text"], w["text"]):
        assert a.encode("utf-8") == b.encode("utf-8")


def test_entry_smoke():
    ds = entrymod.entry()
    rows = ds.take_all()
    assert len(rows) > 0
    assert set(rows[0]) >= {"graph", "subj", "pred", "obj"}
