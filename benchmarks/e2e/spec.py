"""``BENCHMARK.json`` is the one place that names workloads and metrics
and fixes units, directions and bounds; everything else reads it."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: results/ holds this seed's results and a second seed's
DEFAULT_SEED = 1


def load() -> dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)
