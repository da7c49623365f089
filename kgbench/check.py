"""Checks a job's sorted output against the DuckDB ``kg_quads_all`` oracle.

Both sinks are checked: the Parquet rows must equal the oracle on every
column (``n_src`` and ``src_url`` included), and the N-Quads shards must
hold one line per row, each shard sorted by (subj, pred, obj).
"""

from __future__ import annotations

import glob
import os
import re

import pyarrow as pa

COLUMNS = ["graph", "subj", "pred", "obj", "obj_is_literal", "obj_datatype",
           "src_url", "n_src"]

_LINE = re.compile(
    r'^<([^>]*)> <([^>]*)> (<[^>]*>|"(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>)?) '
    r'<[^>]*> \.$')
_UNESCAPE = re.compile(r"\\(.)")


def _sql_str(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def oracle_table(documents_parquet: str) -> pa.Table:
    """The expected quads for a documents table, from DuckDB."""
    import duckdb

    import __ray_entry__

    con = duckdb.connect()
    try:
        con.execute("CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet({_sql_str(documents_parquet)})")
        return con.execute(__ray_entry__.oracle_sql()["kg_quads_all"]).arrow()
    finally:
        con.close()


def _obj_value(term: str) -> str:
    """The object's value as the sort saw it: IRI or unescaped lexical."""
    if term.startswith("<"):
        return term[1:-1]
    lex = term[1:term.rindex('"')]
    return _UNESCAPE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1),
                         lex)


def nquads_problems(nq_dir: str) -> tuple[int, list[str]]:
    """(line count, problems) over every ``.nq`` shard in ``nq_dir``."""
    files = sorted(glob.glob(os.path.join(nq_dir, "*.nq")))
    if not files:
        return 0, [f"no .nq shards under {nq_dir}"]
    lines, problems = 0, []
    for path in files:
        prev = None
        with open(path, encoding="utf-8") as f:
            for i, line in enumerate(f):
                lines += 1
                m = _LINE.match(line.rstrip("\n"))
                if m is None:
                    problems.append(f"{path}:{i + 1}: not an N-Quads line")
                    break
                key = (m.group(1), m.group(2), _obj_value(m.group(3)))
                if prev is not None and key < prev:
                    problems.append(f"{path}:{i + 1}: out of (subj, pred, "
                                    "obj) order")
                    break
                prev = key
    return lines, problems


def output_problems(out_dir: str, expected: pa.Table) -> list[str]:
    """Everything wrong with one job's output; empty when it is correct."""
    import duckdb

    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    if not files:
        return [f"no Parquet output under {out_dir}"]
    con = duckdb.connect()
    try:
        con.register("expected", expected)
        paths = ", ".join(_sql_str(f) for f in files)
        con.execute(f"CREATE VIEW got AS SELECT * FROM read_parquet([{paths}])")
        cols = ", ".join(COLUMNS)
        n_rows = con.execute("SELECT count(*) FROM got").fetchone()[0]
        missing, extra = (
            con.execute(f"SELECT count(*) FROM (SELECT {cols} FROM {a} "
                        f"EXCEPT ALL SELECT {cols} FROM {b})").fetchone()[0]
            for a, b in (("expected", "got"), ("got", "expected")))
    except duckdb.Error as e:
        return [f"Parquet output unreadable as quads: {e}"]
    finally:
        con.close()
    problems = []
    if missing or extra:
        problems.append(f"Parquet rows differ from kg_quads_all: {missing} "
                        f"missing, {extra} unexpected")
    lines, nq = nquads_problems(os.path.join(out_dir, "nquads"))
    problems.extend(nq)
    if lines != n_rows:
        problems.append(f"{lines} N-Quads lines for {n_rows} Parquet rows")
    return problems
