"""The real tree must lint clean, and the acceptance-criteria injections
must each trip the correct rule (ISSUE 2 acceptance list).

These tests run the production manifest + baseline against ``src/repro``
exactly as ``make lint`` does, so a privacy regression fails the tier-1
suite even before CI runs the standalone linter.
"""

import ast
import re
from pathlib import Path

import pytest

import repro.protocols as repro_protocols
from repro.crypto import modes
from repro.crypto.aes import AES128, CipherEngine
from repro.crypto.det import DeterministicCipher
from repro.crypto.ndet import NonDeterministicCipher
from repro.crypto.reference import ReferenceAES128
from repro.protocols import ProtocolDriver
from repro.tds import noise as tds_noise
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
    # plus the facade's submit_tuples: an adapter onto submit_tuple_block
    # with no row of its own, still a transfer endpoint
    assert production_manifest().transfer_methods == flagged | {"submit_tuples"}


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


def test_only_the_device_builds_noise():
    # A device derives its collection encoding from the meta and the
    # discovered distribution alone: no driver or fleet hands it fakes.
    noise_classes = {
        name
        for name, value in vars(tds_noise).items()
        if isinstance(value, type) and issubclass(value, tds_noise.NoiseStrategy)
    }
    tds_package = REPO_ROOT / "src" / "repro" / "tds"
    offenders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if tds_package in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in noise_classes:
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {name}")
    assert offenders == []


def test_ciphertext_lists_travel_as_blocks_only():
    # One shape carries every ciphertext list: the per-item view is built
    # by the block itself (``tuples()``, ``from_tuples``) and nowhere
    # else in the program, and the second per-item type is gone.
    messages = REPO_ROOT / "src" / "repro" / "core" / "messages.py"
    gone = "Encrypted" + "Partial"  # spelt in two: a grep for it finds no use
    offenders = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if gone in text:
            offenders.append(f"{path.relative_to(REPO_ROOT)}: names {gone}")
        if path == messages:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "EncryptedTuple":
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}: EncryptedTuple(")
    assert offenders == []


def test_protocols_export_no_per_protocol_driver_class():
    # A protocol is its row: one driver runs every row.
    exported = {name: getattr(repro_protocols, name) for name in repro_protocols.__all__}
    drivers = {
        name
        for name, value in exported.items()
        if isinstance(value, type) and issubclass(value, ProtocolDriver)
    }
    assert drivers == {"ProtocolDriver"}


def _public_callables(namespace) -> set[str]:
    return {
        name
        for name in dir(namespace)
        if not name.startswith("_") and callable(getattr(namespace, name))
    }


def test_cipher_engine_surface_is_the_block_transform_and_two_batch_calls():
    # One kernel per direction: an engine is the 16-byte AES plus one CTR
    # batch and one CBC-MAC batch, and the modes module is those two
    # batch calls.  A single-message or packed-buffer variant coming back
    # at either layer fails here.
    surface = {"encrypt_block", "decrypt_block", "ctr_many", "cbc_mac_many"}
    engines = [CipherEngine, AES128, ReferenceAES128]
    try:
        from repro.crypto.openssl import OpenSSLAES128
    except ImportError:  # pragma: no cover - environment without cryptography
        pass
    else:
        engines.append(OpenSSLAES128)
    for engine in engines:
        assert _public_callables(engine) == surface, engine.__name__
    own = {
        name
        for name in _public_callables(modes)
        if getattr(getattr(modes, name), "__module__", None) == modes.__name__
    }
    assert own == {"ctr_many", "cbc_mac_many"}


CIPHER_CALLS = (
    "encrypt", "decrypt", "encrypt_many", "decrypt_many",
    "encrypt_block", "decrypt_block",
)


@pytest.mark.parametrize("name", CIPHER_CALLS)
@pytest.mark.parametrize("cls", [NonDeterministicCipher, DeterministicCipher])
def test_no_public_cipher_call_goes_through_another(monkeypatch, cls, name):
    # The end-to-end benchmark wraps all six names by class and counts
    # one traced call per public call; an adapter that reached its
    # kernel through another public name would count twice.
    cipher = cls(bytes(16))
    sealed = cipher.encrypt(b"m")
    args = {
        "encrypt": (b"m",),
        "decrypt": (sealed,),
        "encrypt_many": ([b"m"],),
        "decrypt_many": ([sealed],),
        "encrypt_block": (b"m", (0, 1)),
        "decrypt_block": (sealed, (0, len(sealed))),
    }
    reached: list[str] = []

    def counting(other):
        real = getattr(cls, other)

        def wrapper(self, *a, **kw):
            reached.append(other)
            return real(self, *a, **kw)

        return wrapper

    for other in CIPHER_CALLS:
        if other != name:
            monkeypatch.setattr(cls, other, counting(other))
    getattr(cipher, name)(*args[name])
    assert reached == []


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
    source = _real_source("src/repro/protocols/base.py") + (
        "\n\ndef leak(driver, envelope):\n"
        "    driver.ssi.submit_tuples(envelope.query_id, [])\n"
    )
    findings = lint_source(
        "src/repro/protocols/base.py", source, production_manifest()
    )
    assert "PL004" in {f.rule for f in findings}


def test_injected_det_enc_in_s_agg_trips_pl003():
    # the driver module every row (s_agg among them) runs through
    source = _real_source("src/repro/protocols/base.py") + (
        "\nfrom repro.crypto.det import DeterministicCipher\n"
        "_tagger = DeterministicCipher(bytes(16))\n"
    )
    findings = lint_source(
        "src/repro/protocols/base.py", source, production_manifest()
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


_FAMILY = re.compile(r'REGISTRY\.(?:counter|gauge|histogram)\(\s*"([a-z_]+)"')
# Where a reader of a metric family may live: anything outside the
# program that scrapes, asserts on or prints it.
_READER_ROOTS = ("tests", "tools", "benchmarks", "examples")
_READER_FILES = ("Makefile",)


def _reader_texts():
    this_file = Path(__file__).resolve()
    paths = [REPO_ROOT / name for name in _READER_FILES]
    for root in _READER_ROOTS:
        paths += sorted((REPO_ROOT / root).rglob("*.py"))
    paths += sorted((REPO_ROOT / ".github" / "workflows").glob("*.y*ml"))
    for path in paths:
        if path.resolve() != this_file and path.is_file():
            yield path.read_text(encoding="utf-8")


def test_every_metric_family_has_a_reader():
    # An instrument nobody reads is a second record of some fact that can
    # drift from the first; a family lands with the test, tool or
    # benchmark that reads it, or not at all.
    declared = {
        name: path.relative_to(REPO_ROOT)
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        for name in _FAMILY.findall(path.read_text(encoding="utf-8"))
    }
    assert declared, "no metric family found: the scan pattern is stale"
    readers = "\n".join(_reader_texts())
    unread = sorted(
        f"{name} ({path})" for name, path in declared.items() if name not in readers
    )
    assert unread == [], "metric families nothing reads:\n" + "\n".join(unread)
