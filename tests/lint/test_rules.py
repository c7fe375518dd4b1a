"""Each PL rule must flag its known-bad fixture and pass its known-good one."""

from pathlib import Path

import pytest

from tools.privacy_lint import Manifest, lint_source
from tools.privacy_lint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_manifest() -> Manifest:
    return Manifest.load(FIXTURES / "manifest.cfg")


def lint_fixture(name: str) -> list:
    path = f"tests/lint/fixtures/{name}"
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(path, source, fixture_manifest())


def codes(findings) -> set:
    return {finding.rule for finding in findings}


# --------------------------------------------------------------------- #
# PL001 — trust-boundary imports
# --------------------------------------------------------------------- #
def test_pl001_flags_forbidden_imports():
    findings = lint_source(
        "tests/lint/fixtures/pl001_bad_ssi.py",
        (FIXTURES / "pl001_bad_ssi.py").read_text(),
        fixture_manifest(),
    )
    pl001 = [f for f in findings if f.rule == "PL001"]
    assert {f.line for f in pl001} == {6, 7, 8, 9}
    messages = " ".join(f.message for f in pl001)
    assert "repro.tds.node" in messages
    assert "TupleContent" in messages
    assert "repro.crypto.keys" in messages
    assert "repro.core.codec" in messages


def test_pl001_good_ssi_clean():
    assert "PL001" not in codes(lint_fixture("pl001_good_ssi.py"))


def test_pl001_ignores_non_ssi_roles():
    # The same bad source linted under a protocol-role path is out of scope.
    findings = lint_source(
        "tests/lint/fixtures/pl004_renamed.py",
        (FIXTURES / "pl001_bad_ssi.py").read_text(),
        fixture_manifest(),
    )
    assert "PL001" not in codes(findings)


# --------------------------------------------------------------------- #
# PL002 — plaintext egress
# --------------------------------------------------------------------- #
def test_pl002_flags_each_leak():
    findings = [f for f in lint_fixture("pl002_bad_egress.py") if f.rule == "PL002"]
    assert {f.line for f in findings} == {8, 12, 16, 20, 24}


def test_pl002_flags_each_leak_on_the_block_path():
    # the sinks every contribution reaches the SSI through: the facade,
    # the wire proxy, the batcher and the block constructor — and the
    # proxy a TDS's partials and result rows go back through
    findings = [
        f for f in lint_fixture("pl002_bad_block_egress.py") if f.rule == "PL002"
    ]
    assert {f.line for f in findings} == {7, 11, 15, 20, 27}
    sinks = {f.message.split(" flows into SSI-bound ")[1].split()[0] for f in findings}
    assert sinks == {
        "submit_tuple_block", "submit_tuples_batch", "submit_block", "EncryptedTupleBlock",
        "submit_partition_result",
    }


def test_pl002_good_egress_clean():
    assert "PL002" not in codes(lint_fixture("pl002_good_egress.py"))


def test_pl002_encrypt_sanitizes_plaintext_names():
    # encrypt_many(tag_plaintexts) is the idiom used by tds/node.py; the
    # plaintext-named argument inside the sanitizer must not fire.
    source = (
        "def f(det, ndet, frames, tag_plaintexts):\n"
        "    return [E(payload=p, group_tag=t) for p, t in\n"
        "            zip(ndet.encrypt_many(frames),"
        " det.encrypt_many(tag_plaintexts))]\n"
    )
    assert lint_source("x.py", source, fixture_manifest()) == []


# --------------------------------------------------------------------- #
# PL003 — Det_Enc allowlist
# --------------------------------------------------------------------- #
def test_pl003_flags_import_and_calls():
    findings = [f for f in lint_fixture("pl003_bad_det.py") if f.rule == "PL003"]
    assert {f.line for f in findings} == {3, 8, 9}


def test_pl003_allowlisted_file_clean():
    assert "PL003" not in codes(lint_fixture("pl003_good_det.py"))


# --------------------------------------------------------------------- #
# PL004 — accounting choke point
# --------------------------------------------------------------------- #
def test_pl004_flags_unaccounted_transfers():
    findings = [f for f in lint_fixture("pl004_bad_protocol.py") if f.rule == "PL004"]
    assert {f.line for f in findings} == {7, 10, 14, 19}


def test_pl004_good_protocol_clean():
    assert "PL004" not in codes(lint_fixture("pl004_good_protocol.py"))


def test_pl004_out_of_role_file_ignored():
    findings = lint_source(
        "tests/lint/fixtures/other.py",
        (FIXTURES / "pl004_bad_protocol.py").read_text(),
        fixture_manifest(),
    )
    assert "PL004" not in codes(findings)


# --------------------------------------------------------------------- #
# PL005 — simulation determinism
# --------------------------------------------------------------------- #
def test_pl005_flags_wall_clock_and_global_rng():
    findings = [f for f in lint_fixture("pl005_bad_sim.py") if f.rule == "PL005"]
    assert {f.line for f in findings} == {9, 13, 14, 18}
    # line 9 carries both time.time() and random.random()
    assert sum(1 for f in findings if f.line == 9) == 2


def test_pl005_good_sim_clean():
    assert "PL005" not in codes(lint_fixture("pl005_good_sim.py"))


# --------------------------------------------------------------------- #
# PL006 — obs sink redaction
# --------------------------------------------------------------------- #
def test_pl006_flags_each_violation():
    findings = [f for f in lint_fixture("pl006_bad_obs.py") if f.rule == "PL006"]
    assert {f.line for f in findings} == {11, 12, 13, 14, 15}
    # payload=payload is doubly wrong: rogue field name AND forbidden value
    assert sum(1 for f in findings if f.line == 12) == 2
    messages = " ".join(f.message for f in findings)
    assert "string literal" in messages
    assert "**kwargs" in messages
    assert "allowlist" in messages
    assert "len(...)" in messages


def test_pl006_len_exemption():
    # len(tuples) is the size channel the SSI already observes — clean.
    source = (
        "from repro.obs.logs import log_event\n"
        "def f(logger, tuples):\n"
        "    log_event(logger, 'flush', count=len(tuples))\n"
    )
    assert lint_source("x.py", source, fixture_manifest()) == []


def test_pl006_good_obs_clean():
    assert "PL006" not in codes(lint_fixture("pl006_good_obs.py"))


# --------------------------------------------------------------------- #
# engine behaviour
# --------------------------------------------------------------------- #
def test_select_restricts_rules():
    findings = lint_source(
        "tests/lint/fixtures/pl001_bad_ssi.py",
        (FIXTURES / "pl001_bad_ssi.py").read_text(),
        fixture_manifest(),
        select={"PL003"},
    )
    assert findings == []


def test_lint_paths_reports_syntax_errors(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = lint_paths([bad], fixture_manifest(), root=tmp_path)
    assert not report.clean
    assert len(report.errors) == 1


def test_unknown_role_only_runs_role_independent_rules():
    source = "import repro.tds.node\n"
    findings = lint_source("unmapped/module.py", source, fixture_manifest())
    assert findings == []


def test_findings_sorted_and_rendered():
    findings = lint_fixture("pl002_bad_egress.py")
    assert findings == sorted(findings)
    for finding in findings:
        assert finding.render().startswith(
            f"{finding.path}:{finding.line}:{finding.col}: PL002 "
        )


@pytest.mark.parametrize(
    "name",
    [
        "pl001_good_ssi.py",
        "pl002_good_egress.py",
        "pl003_good_det.py",
        "pl004_good_protocol.py",
        "pl005_good_sim.py",
        "pl006_good_obs.py",
    ],
)
def test_good_fixtures_fully_clean(name):
    assert lint_fixture(name) == []
