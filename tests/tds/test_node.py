"""TrustedDataServer node tests: the TDS-side protocol primitives."""

import functools
import hashlib
import random

import pytest

from repro.core.codec import decode, encode
from repro.core.messages import Partition, QueryEnvelope
from repro.crypto.keys import KeyProvisioner, random_key
from repro.crypto.ndet import NonDeterministicCipher
from repro.exceptions import (
    AccessDeniedError,
    ProtocolError,
    ResourceExhaustedError,
)
from repro.crypto.hashing import BucketHasher
from repro.sql import executor as sql_executor
from repro.sql.ast import SelectStatement
from repro.sql.parser import parse
from repro.sql.partial import PartialAggregation
from repro.sql.schema import Database, schema
from repro.tds.access_control import Authority, permissive_policy
from repro.tds.device import DeviceProfile
from repro.tds.histogram import EquiDepthHistogram
from repro.tds.node import TrustedDataServer, TupleFrameBlock, reduced_row
from repro.tds.noise import ComplementaryNoise, RandomNoise


@pytest.fixture
def setup():
    rng = random.Random(0)
    provisioner = KeyProvisioner(rng)
    authority = Authority(random_key(rng))
    policy = permissive_policy(["T"])

    def make_tds(i, rows):
        db = Database()
        t = db.create_table(schema("T", g="TEXT", x="INTEGER"))
        for row in rows:
            t.insert(row)
        return TrustedDataServer(
            f"tds-{i}", db, provisioner.bundle_for_tds(), policy, authority,
            rng=random.Random(i),
        )

    tds_a = make_tds(0, [{"g": "north", "x": 10}])
    tds_b = make_tds(1, [{"g": "south", "x": 20}, {"g": "north", "x": 5}])
    querier_keys = provisioner.bundle_for_querier()
    credential = authority.issue("q", ["public"])

    def envelope(sql, **size):
        cipher = NonDeterministicCipher(
            querier_keys.k1.current.material, random.Random(99)
        )
        return QueryEnvelope(
            query_id="q1",
            encrypted_query=cipher.encrypt(sql.encode()),
            credential=credential,
            **size,
        )

    return {
        "tds_a": tds_a,
        "tds_b": tds_b,
        "envelope": envelope,
        "authority": authority,
        "querier_keys": querier_keys,
        "provisioner": provisioner,
    }


AGG_SQL = "SELECT g, SUM(x) AS s FROM T GROUP BY g"


class TestOpenQuery:
    def test_decrypts_and_parses(self, setup):
        statement = setup["tds_a"].open_query(setup["envelope"](AGG_SQL))
        assert statement.is_aggregate_query()

    def test_bad_credential_rejected(self, setup):
        from repro.core.messages import Credential

        env = setup["envelope"](AGG_SQL)
        forged = QueryEnvelope(
            env.query_id,
            env.encrypted_query,
            Credential("q", frozenset({"public"}), b"forged-signature"),
        )
        with pytest.raises(AccessDeniedError):
            setup["tds_a"].open_query(forged)

    def test_policy_denied_query(self, setup):
        env = setup["envelope"]("SELECT * FROM Secret")
        with pytest.raises(AccessDeniedError):
            setup["tds_a"].open_query(env)


class TestStatementReuse:
    """A TDS stops re-deriving what it already holds — without skipping
    what it must do itself for every envelope."""

    def test_parse_is_memoised_by_text_and_errors_are_not(self):
        from repro.exceptions import SQLSyntaxError
        from repro.sql import parser

        parser.parse.cache_clear()
        first = parser.parse(AGG_SQL)
        assert parser.parse(AGG_SQL) is first
        assert parser.parse(AGG_SQL + " ") is not first  # keyed by text
        info = parser.parse.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        assert info.maxsize is not None  # bounded
        for _ in range(2):
            with pytest.raises(SQLSyntaxError):
                parser.parse("SELECT FROM")

    def test_a_denied_credential_is_still_denied_on_a_cache_hit(self, setup):
        from repro.core.messages import Credential
        from repro.sql import parser

        parser.parse.cache_clear()
        env = setup["envelope"](AGG_SQL)
        setup["tds_a"].open_query(env)  # the text is cached from here on
        setup["tds_b"].open_query(env)
        assert parser.parse.cache_info().hits == 1
        forged = QueryEnvelope(
            env.query_id,
            env.encrypted_query,
            Credential("q", frozenset({"public"}), b"forged-signature"),
        )
        unprivileged = QueryEnvelope(
            env.query_id,
            env.encrypted_query,
            setup["authority"].issue("nobody", ["guest"]),
        )
        for denied in (forged, unprivileged):
            with pytest.raises(AccessDeniedError):
                setup["tds_a"].open_query(denied)
            # and the device contributes a dummy, not its row
            block = setup["tds_a"].collect_frames(denied, "s_agg")
            assert len(block) == 1
        assert parser.parse.cache_info().hits >= 3  # denied on hits, not misses

    def test_collect_frames_takes_the_statement_the_caller_opened(
        self, setup, monkeypatch
    ):
        tds = setup["tds_b"]
        env = setup["envelope"](AGG_SQL)
        statement = tds.open_query(env)
        opened = []
        monkeypatch.setattr(
            TrustedDataServer, "open_query",
            lambda self, envelope: opened.append(envelope) or statement,
        )
        with_it = tds.collect_frames(env, "s_agg", statement=statement)
        assert opened == []
        without = tds.collect_frames(env, "s_agg")
        assert opened == [env]
        assert bytes(with_it.frames) == bytes(without.frames)


FRAMES = [b"frame-one", b"", b"frame-three-longer", b"x" * 50]


class TestTupleFrameBlock:
    def test_from_frames(self):
        block = TupleFrameBlock.from_frames(FRAMES, [None, b"t", None, b""])
        assert len(block) == 4
        assert block.offsets == (0, 9, 9, 27, 77)
        assert block.frames == b"".join(FRAMES)

    def test_default_tags_are_none(self):
        block = TupleFrameBlock.from_frames(FRAMES)
        assert block.tags == (None,) * len(FRAMES)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            TupleFrameBlock(b"ab", (0, 1), (None, None))
        with pytest.raises(ValueError):
            TupleFrameBlock(b"ab", (0, 3), (None,))
        with pytest.raises(ValueError):
            TupleFrameBlock(b"ab", (0, 2, 1), (None, None))


DOMAIN = [("north",), ("south",)]

#: protocol -> (sql, collect_block keywords, SHA-256 of the sealed
#: payloads), captured at the commit before the crypto offload plane was
#: deleted (PR 24) from ``tds_b`` — every draw seeded, so the bytes are
#: the same on every engine
GOLDEN_CONTRIBUTIONS = {
    "basic": (
        "SELECT x FROM T WHERE x > 3", {},
        "e7e18d7f7bb9c3bd30bd22462ea160773c334b6d568c86d4e13521f51fb76d26",
    ),
    "s_agg": (
        AGG_SQL, {},
        "c382af329023a2719102aba843524b75c124a6fabf85a5f6f248aedc50be0278",
    ),
    "rnf_noise": (
        AGG_SQL,
        {"noise": lambda: RandomNoise(DOMAIN, nf=3, rng=random.Random(1))},
        "ec0d91d790370d2e5d1484bc3fd9db68f530df7beec2ac7c4ea3ca80da2e5986",
    ),
    "c_noise": (
        AGG_SQL, {"noise": lambda: ComplementaryNoise(DOMAIN)},
        "056abe9424e4430c88cf2eec53fa308fa895cd4db25d1eeeafc541659f25b9b6",
    ),
    "ed_hist": (
        AGG_SQL,
        {
            "histogram": lambda: EquiDepthHistogram.from_distribution(
                {("north",): 2, ("south",): 1}, num_buckets=2
            )
        },
        "c382af329023a2719102aba843524b75c124a6fabf85a5f6f248aedc50be0278",
    ),
}


class TestContributionBytes:
    @pytest.mark.parametrize("protocol", list(GOLDEN_CONTRIBUTIONS))
    def test_sealed_payloads_match_the_golden(self, setup, protocol):
        """How a block is sealed may change; with the same seeds, what
        reaches the SSI may not move by a byte."""
        sql, knowledge, digest = GOLDEN_CONTRIBUTIONS[protocol]
        block = setup["tds_b"].collect_block(
            setup["envelope"](sql),
            protocol,
            **{name: build() for name, build in knowledge.items()},
        )
        assert hashlib.sha256(bytes(block.payloads)).hexdigest() == digest


class TestCollectBasic:
    def test_matching_rows_encrypted(self, setup):
        env = setup["envelope"]("SELECT x FROM T WHERE x > 3")
        tuples = setup["tds_a"].collect_basic(env)
        assert len(tuples) == 1
        assert tuples[0].group_tag is None

    def test_dummy_when_no_match(self, setup):
        env = setup["envelope"]("SELECT x FROM T WHERE x > 1000")
        tuples = setup["tds_a"].collect_basic(env)
        assert len(tuples) == 1  # a dummy, indistinguishable to the SSI

    def test_dummy_when_access_denied(self, setup):
        env = setup["envelope"]("SELECT * FROM Secret")
        tuples = setup["tds_a"].collect_basic(env)
        assert len(tuples) == 1

    def test_dummy_same_size_as_data(self, setup):
        env_match = setup["envelope"]("SELECT x FROM T WHERE x > 3")
        env_nomatch = setup["envelope"]("SELECT x FROM T WHERE x > 1000")
        data = setup["tds_a"].collect_basic(env_match)[0]
        dummy = setup["tds_a"].collect_basic(env_nomatch)[0]
        assert len(data.payload) == len(dummy.payload)

    def test_payload_is_ciphertext(self, setup):
        env = setup["envelope"]("SELECT x FROM T WHERE x > 3")
        payload = setup["tds_a"].collect_basic(env)[0].payload
        assert b"north" not in payload
        assert encode(10) not in payload


class TestCollectNoise:
    def test_true_and_fake_tuples_emitted(self, setup):
        env = setup["envelope"](AGG_SQL)
        noise = RandomNoise([("north",), ("south",)], nf=3, rng=random.Random(1))
        tuples = setup["tds_b"].collect_with_noise(env, noise)
        assert len(tuples) == 2 * (1 + 3)  # two true rows, 3 fakes each

    def test_same_group_same_tag(self, setup):
        """Det_Enc property: the SSI can group by tag equality."""
        env = setup["envelope"](AGG_SQL)
        noise = ComplementaryNoise([("north",), ("south",)])
        tuples_a = setup["tds_a"].collect_with_noise(env, noise)
        tuples_b = setup["tds_b"].collect_with_noise(env, noise)
        tags_a = {t.group_tag for t in tuples_a}
        tags_b = {t.group_tag for t in tuples_b}
        assert tags_a == tags_b  # both cover the full domain
        assert len(tags_a) == 2

    def test_complementary_noise_flat_tag_distribution(self, setup):
        from collections import Counter

        env = setup["envelope"](AGG_SQL)
        noise = ComplementaryNoise([("north",), ("south",)])
        counter = Counter()
        for tds in (setup["tds_a"], setup["tds_b"]):
            for t in tds.collect_with_noise(env, noise):
                counter[t.group_tag] += 1
        assert len(set(counter.values())) == 1

    def test_denied_tds_contributes_nothing_but_valid_stream(self, setup):
        env = setup["envelope"]("SELECT nope, SUM(x) FROM Secret GROUP BY nope")
        noise = ComplementaryNoise([("north",)])
        assert setup["tds_a"].collect_with_noise(env, noise) == []


class TestCollectHistogram:
    def test_bucket_tags(self, setup):
        env = setup["envelope"](AGG_SQL)
        hist = EquiDepthHistogram.from_distribution(
            {("north",): 2, ("south",): 1}, num_buckets=2
        )
        tuples = setup["tds_b"].collect_for_histogram(env, hist)
        assert len(tuples) == 2
        assert all(t.group_tag is not None for t in tuples)

    def test_same_bucket_same_tag_across_tds(self, setup):
        env = setup["envelope"](AGG_SQL)
        hist = EquiDepthHistogram.from_distribution(
            {("north",): 2, ("south",): 1}, num_buckets=1
        )
        tag_a = setup["tds_a"].collect_for_histogram(env, hist)[0].group_tag
        tag_b = setup["tds_b"].collect_for_histogram(env, hist)[0].group_tag
        assert tag_a == tag_b


class TestAggregationPhase:
    def _collect_all(self, setup, env):
        tuples = []
        for tds in (setup["tds_a"], setup["tds_b"]):
            tuples.extend(tds.collect_for_sagg(env))
        return tuples

    def test_fold_tuples_into_partial(self, setup):
        env = setup["envelope"](AGG_SQL)
        statement = setup["tds_a"].open_query(env)
        partition = Partition(0, tuple(self._collect_all(setup, env)))
        encrypted = setup["tds_a"].aggregate_partition(statement, partition)
        rows = setup["tds_b"].finalize_partition(
            statement, Partition(1, (encrypted,))
        )
        k1 = NonDeterministicCipher(
            setup["querier_keys"].k1.current.material, random.Random(0)
        )
        decrypted = sorted(
            (decode(k1.decrypt(r)) for r in rows), key=lambda r: r["g"]
        )
        assert decrypted == [{"g": "north", "s": 15}, {"g": "south", "s": 20}]

    def test_dummies_ignored_in_aggregation(self, setup):
        env = setup["envelope"](AGG_SQL + " WHERE x > 1000")
        # re-make env with valid syntax: WHERE precedes GROUP BY
        env = setup["envelope"]("SELECT g, SUM(x) AS s FROM T WHERE x > 1000 GROUP BY g")
        statement = setup["tds_a"].open_query(env)
        tuples = []
        for tds in (setup["tds_a"], setup["tds_b"]):
            tuples.extend(tds.collect_for_sagg(env))
        partition = Partition(0, tuple(tuples))
        encrypted = setup["tds_a"].aggregate_partition(statement, partition)
        rows = setup["tds_b"].finalize_partition(statement, Partition(1, (encrypted,)))
        assert rows == []

    def test_per_group_partials_tagged(self, setup):
        env = setup["envelope"](AGG_SQL)
        statement = setup["tds_a"].open_query(env)
        partition = Partition(0, tuple(self._collect_all(setup, env)))
        partials = setup["tds_a"].aggregate_partition_per_group(statement, partition)
        assert len(partials) == 2
        assert all(p.group_tag is not None for p in partials)
        assert partials[0].group_tag != partials[1].group_tag

    def test_ram_bound_enforced(self, setup):
        tiny = DeviceProfile(
            name="tiny", cpu_hz=1e6, crypto_cycles_per_block=167,
            cpu_cycles_per_byte=30, link_bps=1e6, ram_bytes=64,
        )
        tds = setup["tds_a"]
        cramped = TrustedDataServer(
            "cramped", tds.database, setup["provisioner"].bundle_for_tds(),
            tds._policy, setup["authority"], device=tiny, rng=random.Random(7),
        )
        env = setup["envelope"]("SELECT x, COUNT(*) FROM T GROUP BY x")
        statement = tds.open_query(env)
        tuples = []
        for i in range(30):
            db = Database()
            t = db.create_table(schema("T", g="TEXT", x="INTEGER"))
            t.insert({"g": "g", "x": i})
            node = TrustedDataServer(
                f"n{i}", db, setup["provisioner"].bundle_for_tds(),
                tds._policy, setup["authority"], rng=random.Random(i),
            )
            tuples.extend(node.collect_for_sagg(env))
        with pytest.raises(ResourceExhaustedError):
            cramped.aggregate_partition(statement, Partition(0, tuple(tuples)))


class TestPerStatementWork:
    """What depends on the statement alone is done once per statement,
    what depends on a bucket once per bucket — not once per row."""

    def test_one_keyed_hash_per_distinct_bucket(self, setup, monkeypatch):
        db = Database()
        t = db.create_table(schema("T", g="TEXT", x="INTEGER"))
        for i in range(12):
            t.insert({"g": ["north", "south", "east"][i % 3], "x": i})
        tds = TrustedDataServer(
            "bulk", db, setup["provisioner"].bundle_for_tds(),
            setup["tds_a"]._policy, setup["authority"], rng=random.Random(3),
        )
        histogram = EquiDepthHistogram.from_distribution(
            {"north": 4, "south": 4, "east": 4}, num_buckets=2
        )
        hashed = []
        hash_bucket = BucketHasher.hash_bucket

        def counting(self, bucket_id):
            hashed.append(bucket_id)
            return hash_bucket(self, bucket_id)

        monkeypatch.setattr(BucketHasher, "hash_bucket", counting)
        block = tds.collect_frames(setup["envelope"](AGG_SQL), "ed_hist", histogram=histogram)
        assert len(block) == 12
        assert sorted(hashed) == [0, 1]
        hasher = tds._bucket_hasher()
        assert list(block.tags) == [
            hash_bucket(hasher, histogram.bucket_of(["north", "south", "east"][i % 3]))
            for i in range(12)
        ]

    def test_a_statement_is_walked_and_planned_once(self, setup, monkeypatch):
        walks = []
        walk = SelectStatement.__dict__["_aggregates"].func

        def counting_walk(statement):
            walks.append(statement)
            return walk(statement)

        counted = functools.cached_property(counting_walk)
        counted.__set_name__(SelectStatement, "_aggregates")
        monkeypatch.setattr(SelectStatement, "_aggregates", counted)
        plans = []
        plan_init = sql_executor.StatementPlan.__init__

        def counting_init(plan, statement):
            plans.append(statement)
            plan_init(plan, statement)

        monkeypatch.setattr(sql_executor.StatementPlan, "__init__", counting_init)
        # a text no other test parses, so its plan cannot exist yet
        sql = "SELECT g, SUM(x) AS planned_once, COUNT(*) FROM T GROUP BY g HAVING SUM(x) > 0"
        env = setup["envelope"](sql)
        tuples = []
        for tds in (setup["tds_a"], setup["tds_b"]):
            tuples.extend(tds.collect_for_sagg(env))
        statement = setup["tds_a"].open_query(env)
        folded = [
            setup["tds_a"].aggregate_partition(statement, Partition(0, tuple(tuples[:2]))),
            setup["tds_b"].aggregate_partition(statement, Partition(1, tuple(tuples[2:]))),
        ]
        rows = setup["tds_b"].finalize_partition(statement, Partition(2, tuple(folded)))
        assert len(rows) == 2
        assert plans == [statement]
        assert walks == [statement]

    def test_ram_bound_trips_at_the_first_overflowing_item(self, setup, monkeypatch):
        tiny = DeviceProfile(
            name="tiny", cpu_hz=1e6, crypto_cycles_per_block=167,
            cpu_cycles_per_byte=30, link_bps=1e6, ram_bytes=64,
        )
        tds = setup["tds_a"]
        cramped = TrustedDataServer(
            "cramped", tds.database, setup["provisioner"].bundle_for_tds(),
            tds._policy, setup["authority"], device=tiny, rng=random.Random(7),
        )
        env = setup["envelope"]("SELECT x, COUNT(*) FROM T GROUP BY x")
        statement = tds.open_query(env)
        tuples = []
        for i in range(10):
            db = Database()
            t = db.create_table(schema("T", g="TEXT", x="INTEGER"))
            t.insert({"g": "g", "x": i})
            node = TrustedDataServer(
                f"n{i}", db, setup["provisioner"].bundle_for_tds(),
                tds._policy, setup["authority"], rng=random.Random(i),
            )
            tuples.extend(node.collect_for_sagg(env))
        folded = []
        add_row = PartialAggregation.add_row

        def counting(self, row):
            folded.append(row)
            add_row(self, row)

        monkeypatch.setattr(PartialAggregation, "add_row", counting)
        with pytest.raises(ResourceExhaustedError):
            cramped.aggregate_partition(statement, Partition(0, tuple(tuples)))
        # 64 bytes are 4 slots; a group is its key plus one count: the
        # third distinct group is the first item that does not fit
        assert len(folded) == 3


class TestFilteringPhase:
    def test_filter_drops_dummies(self, setup):
        env = setup["envelope"]("SELECT x FROM T WHERE x > 3")
        env_miss = setup["envelope"]("SELECT x FROM T WHERE x > 1000")
        data = setup["tds_a"].collect_basic(env)
        dummies = setup["tds_a"].collect_basic(env_miss)
        partition = Partition(0, tuple(data + dummies))
        rows = setup["tds_b"].filter_partition(partition)
        assert len(rows) == 1

    def test_filter_rejects_partial_frames(self, setup):
        env = setup["envelope"](AGG_SQL)
        statement = setup["tds_a"].open_query(env)
        tuples = setup["tds_a"].collect_for_sagg(env)
        partial = setup["tds_a"].aggregate_partition(statement, Partition(0, tuple(tuples)))
        with pytest.raises(ProtocolError):
            setup["tds_b"].filter_partition(Partition(1, (partial,)))

    def test_finalize_applies_having(self, setup):
        sql = "SELECT g, SUM(x) AS s FROM T GROUP BY g HAVING SUM(x) > 16"
        env = setup["envelope"](sql)
        statement = setup["tds_a"].open_query(env)
        tuples = []
        for tds in (setup["tds_a"], setup["tds_b"]):
            tuples.extend(tds.collect_for_sagg(env))
        partial = setup["tds_a"].aggregate_partition(statement, Partition(0, tuple(tuples)))
        rows = setup["tds_b"].finalize_partition(statement, Partition(1, (partial,)))
        k1 = NonDeterministicCipher(
            setup["querier_keys"].k1.current.material, random.Random(0)
        )
        decrypted = [decode(k1.decrypt(r)) for r in rows]
        assert decrypted == [{"g": "south", "s": 20}]


class TestReducedRow:
    def test_keeps_only_needed_columns(self):
        statement = parse("SELECT g, SUM(x) FROM T GROUP BY g")
        row = {"T.g": "a", "T.x": 1, "T.noise_col": "zzz"}
        assert reduced_row(statement, row) == {"T.g": "a", "T.x": 1}

    def test_qualified_references(self):
        statement = parse(
            "SELECT C.district, AVG(P.cons) FROM Power P, Consumer C "
            "WHERE C.cid = P.cid GROUP BY C.district"
        )
        row = {"P.cons": 1.0, "P.cid": 7, "C.cid": 7, "C.district": "N", "C.other": 0}
        reduced = reduced_row(statement, row)
        assert reduced == {"P.cons": 1.0, "C.district": "N"}


class TestConstruction:
    def test_tds_requires_both_keys(self, setup):
        from repro.crypto.keys import KeyBundle

        with pytest.raises(ProtocolError):
            TrustedDataServer(
                "bad", Database(), KeyBundle(), permissive_policy([]),
                setup["authority"],
            )
