"""Scrape a repro SSI /metrics endpoint and assert it is healthy.

CI gate for the observability surface: after the three-process
serve-demo has run real queries, the Prometheus endpoint must expose
every required metric family (``# TYPE`` lines render even for
families with no samples yet, so absence means the instrument was
never declared — i.e. someone broke the wiring) and the request
counter must show actual traffic.

Usage::

    python tools/check_metrics_endpoint.py --port 9464 [--host 127.0.0.1]
        [--require family ...] [--min-requests N]

Exit status 0 iff every check passes.  Stdlib only.
"""

from __future__ import annotations

import argparse
import re
import sys
import urllib.error
import urllib.request

#: Families the serve path must always declare, traffic or not.
REQUIRED_FAMILIES = (
    "repro_ssi_requests_total",
    "repro_ssi_request_seconds",
    "repro_ssi_replays_total",
    "server_internal_errors_total",
    "repro_ssi_connections_open",
    "repro_ssi_parked_requests",
    "repro_ssi_frames_total",
    "repro_ssi_bytes_total",
    # health monitor (PR 10): declared by repro.obs.health at serve time
    "repro_health_status",
    "repro_eventloop_lag_seconds",
    "repro_obs_spans_dropped_total",
    # the durable ack path: what an ack waited, what an fsync covered
    "repro_store_ack_wait_seconds",
    "repro_store_fsync_covered_records",
    # the store's two disk stalls: a WAL fsync and a snapshot write
    "repro_store_wal_fsync_seconds",
    "repro_store_snapshot_seconds",
)


def scrape(host: str, port: int, timeout: float) -> str:
    url = f"http://{host}:{port}/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        content_type = response.headers.get("Content-Type", "")
        if not content_type.startswith("text/plain"):
            raise SystemExit(f"FAIL: unexpected content type {content_type!r}")
        return response.read().decode("utf-8")


def check_healthz(host: str, port: int, timeout: float) -> list[str]:
    """Scrape /healthz and assert it serves a well-formed JSON verdict."""
    import json

    url = f"http://{host}:{port}/healthz"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read().decode("utf-8")
            status_code = response.status
    except urllib.error.HTTPError as exc:  # 503 = degraded, still JSON
        body = exc.read().decode("utf-8")
        status_code = exc.code
    except (urllib.error.URLError, OSError) as exc:
        return [f"cannot scrape {url}: {exc}"]
    try:
        verdict = json.loads(body)
    except ValueError:
        return [f"/healthz body is not JSON (monitor not wired?): {body[:80]!r}"]
    failures = []
    if verdict.get("status") not in ("ok", "degraded", "critical"):
        failures.append(f"/healthz has invalid status {verdict.get('status')!r}")
    if not isinstance(verdict.get("reasons"), list):
        failures.append("/healthz verdict lacks a reasons list")
    expect_503 = verdict.get("status") != "ok"
    if expect_503 != (status_code == 503):
        failures.append(
            f"/healthz status code {status_code} inconsistent with "
            f"verdict {verdict.get('status')!r}"
        )
    if not failures:
        print(f"ok: /healthz verdict {verdict.get('status')!r} "
              f"(reasons={verdict.get('reasons')})")
    return failures


def check(text: str, required: tuple[str, ...], min_requests: int) -> list[str]:
    failures = []
    for family in required:
        if f"# TYPE {family} " not in text:
            failures.append(f"missing metric family {family}")
    total = 0.0
    for line in text.splitlines():
        match = re.match(r'repro_ssi_requests_total\{[^}]*\} ([0-9.e+-]+)$', line)
        if match:
            total += float(match.group(1))
    if total < min_requests:
        failures.append(
            f"repro_ssi_requests_total sums to {total:g}, "
            f"expected >= {min_requests} after the demo queries"
        )
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--timeout", type=float, default=5.0)
    parser.add_argument(
        "--require",
        nargs="*",
        default=list(REQUIRED_FAMILIES),
        help="metric families that must be present",
    )
    parser.add_argument(
        "--min-requests",
        type=int,
        default=1,
        help="minimum total across repro_ssi_requests_total series",
    )
    parser.add_argument(
        "--check-healthz",
        action="store_true",
        help="also scrape /healthz and assert a well-formed JSON verdict",
    )
    args = parser.parse_args(argv)
    try:
        text = scrape(args.host, args.port, args.timeout)
    except (urllib.error.URLError, OSError) as exc:
        print(f"FAIL: cannot scrape {args.host}:{args.port}/metrics: {exc}")
        return 1
    failures = check(text, tuple(args.require), args.min_requests)
    if args.check_healthz:
        failures.extend(check_healthz(args.host, args.port, args.timeout))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    families = len(re.findall(r"(?m)^# TYPE ", text))
    print(
        f"ok: {args.host}:{args.port}/metrics exposes {families} families, "
        f"all {len(args.require)} required ones present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
