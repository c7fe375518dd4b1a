"""The real tree must lint clean, and the acceptance-criteria injections
must each trip the correct rule (ISSUE 2 acceptance list).

These tests run the production manifest + baseline against ``src/repro``
exactly as ``make lint`` does, so a privacy regression fails the tier-1
suite even before CI runs the standalone linter.
"""

import ast
from pathlib import Path

from tools.privacy_lint import Manifest, lint_source
from tools.privacy_lint.baseline import Baseline
from tools.privacy_lint.cli import main as lint_main
from tools.privacy_lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "tools" / "privacy_lint" / "baseline.txt"


def production_manifest() -> Manifest:
    return Manifest.load(None)


def test_src_repro_lints_clean():
    report = lint_paths(
        [REPO_ROOT / "src" / "repro"],
        production_manifest(),
        baseline=Baseline.load(BASELINE),
        root=REPO_ROOT,
    )
    assert report.errors == []
    assert report.findings == [], "\n".join(f.render() for f in report.findings)


def test_baseline_entries_all_still_match():
    # Every committed baseline entry must still suppress something: dead
    # entries mean the offending code changed and must be re-decided.
    # (One entry may cover several findings — a single blocking line can
    # reach multiple crypto leaves — so compare keys, not counts.)
    baseline = Baseline.load(BASELINE)
    report = lint_paths(
        [REPO_ROOT / "src" / "repro"],
        production_manifest(),
        baseline=None,
        root=REPO_ROOT,
    )
    live = {(f.rule, f.path, f.normalized_source()) for f in report.findings}
    for key in baseline.entries:
        assert key in live, f"dead baseline entry: {key}"


def test_pl004_transfer_methods_are_the_op_table_rows_that_move_tds_bytes():
    # The manifest stays a static list (the linter never imports the
    # code it checks); this pins it to the rows flagged ``tds_bytes`` —
    # under the client's name and the facade's — so a new byte-moving
    # operation missing from PL004 fails here, not silently in LoadQ.
    from repro.net import ops

    flagged = {
        name for op in ops.TABLE if op.tds_bytes for name in (op.name, op.method)
    }
    assert production_manifest().transfer_methods == flagged


def test_tds_side_packages_never_serialise_out_of_the_process():
    # Key material and cleartext frames stay in the TDS process: nothing
    # under crypto/ or tds/ may reach for a process pool, an executor or
    # pickle (the deleted crypto/pool.py shipped the k2 master key and
    # every cleartext frame through a pipe to a spawn worker).
    banned = {"multiprocessing", "concurrent", "pickle"}
    offenders = []
    for package in ("crypto", "tds"):
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(REPO_ROOT)}: {name}"
                    for name in names
                    if name.split(".")[0] in banned
                ]
    assert offenders == []


def test_cli_exit_zero_on_clean_tree(capsys):
    exit_code = lint_main([str(REPO_ROOT / "src" / "repro")])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out + captured.err


# --------------------------------------------------------------------- #
# acceptance-criteria injections (run against real file contents)
# --------------------------------------------------------------------- #
def _real_source(rel: str) -> str:
    return (REPO_ROOT / rel).read_text(encoding="utf-8")


def test_injected_tds_import_in_ssi_server_trips_pl001():
    source = "import repro.tds.node\n" + _real_source("src/repro/ssi/server.py")
    findings = lint_source(
        "src/repro/ssi/server.py", source, production_manifest()
    )
    assert "PL001" in {f.rule for f in findings}


def test_injected_raw_transfer_trips_pl004():
    source = _real_source("src/repro/protocols/s_agg.py") + (
        "\n\ndef leak(driver, envelope):\n"
        "    driver.ssi.submit_tuples(envelope.query_id, [])\n"
    )
    findings = lint_source(
        "src/repro/protocols/s_agg.py", source, production_manifest()
    )
    assert "PL004" in {f.rule for f in findings}


def test_injected_det_enc_in_s_agg_trips_pl003():
    source = _real_source("src/repro/protocols/s_agg.py") + (
        "\nfrom repro.crypto.det import DeterministicCipher\n"
        "_tagger = DeterministicCipher(bytes(16))\n"
    )
    findings = lint_source(
        "src/repro/protocols/s_agg.py", source, production_manifest()
    )
    assert {f.rule for f in findings} >= {"PL003"}


def test_injected_wall_clock_in_runner_trips_pl005():
    source = _real_source("src/repro/simulation/runner.py") + (
        "\nimport time\n\n\ndef _stamp() -> float:\n    return time.time()\n"
    )
    findings = lint_source(
        "src/repro/simulation/runner.py", source, production_manifest()
    )
    assert "PL005" in {f.rule for f in findings}


def test_injected_plaintext_egress_trips_pl002():
    source = _real_source("src/repro/tds/node.py") + (
        "\n\ndef leak(content):\n"
        "    from repro.core.messages import EncryptedTuple\n"
        "    return EncryptedTuple(payload=encode_tuple_frame(content))\n"
    )
    findings = lint_source("src/repro/tds/node.py", source, production_manifest())
    assert "PL002" in {f.rule for f in findings}
