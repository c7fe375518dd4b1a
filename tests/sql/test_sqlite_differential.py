"""``repro.sql`` against sqlite3 on generated queries.

The oracle the SQL engine lacked: seeded tables with NULLs, and
``WHERE`` / ``GROUP BY`` / ``HAVING`` / aggregate queries generated from
a small grammar, run the way the protocols run them — parser, compiled
plan, one partial aggregation per "device", portable round trip, merge,
finalize — and through sqlite.  The grammar stays inside what the two
dialects define alike (no integer ``/``, no ``%`` of negatives, no
``ROUND``, ``LIKE`` made case-sensitive in sqlite, grouped queries only:
on empty input sqlite answers a global aggregate with one row, the
paper's protocols with none).
"""

import math
import random
import sqlite3

import pytest

from repro.sql.executor import execute, finalize_groups, local_matching_rows
from repro.sql.parser import parse
from repro.sql.partial import PartialAggregation
from repro.sql.schema import Database, schema
from repro.tds.node import reduced_row

GROUPS = ["a", "b", "ab", "B", None]


def make_rows(rng: random.Random, count: int) -> list[dict]:
    return [
        {
            "g": rng.choice(GROUPS),
            "h": rng.choice([None, 0, 1, 2, 3]),
            "x": rng.randrange(0, 20),
            "y": rng.choice([None, round(rng.uniform(-5, 5), 3)]),
        }
        for _ in range(count)
    ]


def repro_database(rows: list[dict]) -> Database:
    db = Database()
    table = db.create_table(schema("T", g="TEXT", h="INTEGER", x="INTEGER", y="REAL"))
    for row in rows:
        table.insert(row)
    return db


def sqlite_database(rows: list[dict]) -> sqlite3.Connection:
    con = sqlite3.connect(":memory:")
    con.execute("PRAGMA case_sensitive_like = ON")
    con.execute("CREATE TABLE T (g TEXT, h INTEGER, x INTEGER, y REAL)")
    con.executemany("INSERT INTO T VALUES (:g, :h, :x, :y)", rows)
    return con


# ---------------------------------------------------------------------- #
# the grammar
# ---------------------------------------------------------------------- #
def number(rng: random.Random) -> str:
    return rng.choice(
        ["x", "h", "y", "x + h", "x * 2 - h", "ABS(y)", "COALESCE(h, 7)", "x % 3", "-x"]
    )


def predicate(rng: random.Random, depth: int = 0) -> str:
    if depth < 2 and rng.random() < 0.4:
        left, right = predicate(rng, depth + 1), predicate(rng, depth + 1)
        form = rng.choice(["({} AND {})", "({} OR {})", "NOT ({} AND {})"])
        return form.format(left, right)
    return rng.choice(
        [
            lambda: f"{number(rng)} {rng.choice(['=', '<>', '<', '<=', '>', '>='])} "
                    f"{rng.choice([number(rng), str(rng.randrange(-3, 12))])}",
            lambda: f"g {rng.choice(['=', '<>'])} '{rng.choice('abB')}'",
            lambda: f"g {rng.choice(['IN', 'NOT IN'])} ('a', 'B')",
            lambda: f"h {rng.choice(['IN', 'NOT IN'])} (1, 3, NULL)",
            lambda: f"x {rng.choice(['BETWEEN', 'NOT BETWEEN'])} "
                    f"{rng.randrange(0, 8)} AND {rng.randrange(6, 20)}",
            lambda: f"{rng.choice('ghy')} IS {rng.choice(['', 'NOT '])}NULL",
            lambda: f"g {rng.choice(['LIKE', 'NOT LIKE'])} '{rng.choice(['a%', '_b', '%b%', 'B'])}'",
            lambda: f"LENGTH(g) = {rng.randrange(1, 3)}",
        ]
    )()


AGGREGATES = [
    "COUNT(*)", "COUNT(h)", "COUNT(y)", "SUM(x)", "SUM(h)", "AVG(y)", "AVG(x)",
    "MIN(x)", "MAX(y)", "MIN(g)", "SUM(x + h)", "MAX(x * 2 - h)",
    "COUNT(DISTINCT h)", "SUM(DISTINCT x)", "AVG(DISTINCT h)",
]
GROUPINGS = [["g"], ["h"], ["g", "h"], ["x % 2"], ["UPPER(g)"], ["COALESCE(h, -1)", "g"]]


def grouped_query(rng: random.Random) -> str:
    grouping = rng.choice(GROUPINGS)
    aggregates = rng.sample(AGGREGATES, rng.randrange(1, 4))
    items = [f"{expr} AS k{i}" for i, expr in enumerate(grouping)]
    items += [f"{expr} AS a{i}" for i, expr in enumerate(aggregates)]
    sql = f"SELECT {', '.join(items)} FROM T"
    if rng.random() < 0.7:
        sql += f" WHERE {predicate(rng)}"
    sql += f" GROUP BY {', '.join(grouping)}"
    if rng.random() < 0.5:
        having = rng.choice(
            [
                f"COUNT(*) > {rng.randrange(0, 4)}",
                f"{rng.choice(aggregates)} IS NOT NULL",
                f"SUM(x) >= {rng.randrange(0, 40)} OR MIN(h) = 0",
                f"AVG(y) < {rng.randrange(-2, 3)}",
            ]
        )
        sql += f" HAVING {having}"
    return sql


# ---------------------------------------------------------------------- #
# the two executions
# ---------------------------------------------------------------------- #
def through_partials(sql: str, devices: list[list[dict]]) -> list[dict]:
    """Collection on every device, one partial per device shipped in its
    portable form, merged pairwise, finalized."""
    statement = parse(sql)
    merged = PartialAggregation(statement)
    for rows in devices:
        local = PartialAggregation(statement)
        local.add_rows(
            reduced_row(statement, row)
            for row in local_matching_rows(repro_database(rows), statement)
        )
        merged.merge(PartialAggregation.from_portable(statement, local.to_portable()))
        for aggregation in (local, merged):
            # the maintained slot count against the definition
            assert aggregation.memory_slots() == sum(
                1 + sum(state.state_size() for state in states)
                for states in aggregation.groups().values()
            )
    return finalize_groups(statement, merged.groups())


def canonical(rows) -> list[tuple]:
    def cell(value):
        if isinstance(value, float):
            # summation order differs between the engines
            return ("n", float(f"{value:.9g}"))
        if isinstance(value, bool):
            return ("n", float(value))
        if isinstance(value, int):
            return ("n", float(value))
        return ("s", value) if value is not None else ("", "")

    return sorted(tuple(cell(value) for value in row) for row in rows)


def assert_same(sql: str, got: list[dict], want: list[tuple]) -> None:
    assert canonical(row.values() for row in got) == canonical(want), sql


@pytest.mark.parametrize("seed", range(8))
def test_grouped_queries_match_sqlite(seed):
    rng = random.Random(seed)
    rows = make_rows(rng, 60)
    devices = [rows[i::4] for i in range(4)]
    con = sqlite_database(rows)
    for _ in range(40):
        sql = grouped_query(rng)
        want = con.execute(sql).fetchall()
        assert_same(sql, through_partials(sql, devices), want)
        assert_same(sql, execute(repro_database(rows), parse(sql)), want)


@pytest.mark.parametrize("seed", range(4))
def test_select_where_matches_sqlite(seed):
    rng = random.Random(100 + seed)
    rows = make_rows(rng, 40)
    con = sqlite_database(rows)
    db = repro_database(rows)
    for _ in range(40):
        sql = f"SELECT g, x, {number(rng)} AS v FROM T WHERE {predicate(rng)}"
        assert_same(sql, execute(db, parse(sql)), con.execute(sql).fetchall())


def test_local_join_matches_sqlite():
    rng = random.Random(7)
    rows = make_rows(rng, 30)
    con = sqlite_database(rows)
    con.execute("CREATE TABLE U (h INTEGER, w INTEGER)")
    weights = [{"h": h, "w": w} for h, w in [(0, 10), (1, 20), (1, 30), (None, 40), (5, 50)]]
    con.executemany("INSERT INTO U VALUES (:h, :w)", weights)
    db = repro_database(rows)
    other = db.create_table(schema("U", h="INTEGER", w="INTEGER"))
    for row in weights:
        other.insert(row)
    sql = (
        "SELECT T.g AS g, SUM(U.w) AS s, COUNT(*) AS n FROM T, U "
        "WHERE T.h = U.h AND T.x > 3 GROUP BY T.g HAVING COUNT(*) > 1"
    )
    assert_same(sql, execute(db, parse(sql)), con.execute(sql).fetchall())


def test_global_aggregates_match_sqlite_on_non_empty_input():
    rows = make_rows(random.Random(3), 50)
    con = sqlite_database(rows)
    sql = "SELECT COUNT(*) AS n, SUM(h) AS s, AVG(y) AS a, MIN(g) AS m FROM T WHERE x > 2"
    got = through_partials(sql, [rows[:20], rows[20:]])
    assert_same(sql, got, con.execute(sql).fetchall())
    assert math.isfinite(got[0]["a"])
