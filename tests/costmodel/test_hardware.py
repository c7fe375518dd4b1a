"""Hardware calibration tests (Fig. 9b)."""

import pytest

from repro.crypto import cache
from repro.costmodel.hardware import (
    calibrate_software_crypto,
    unit_test_breakdown,
)
from repro.tds.device import SECURE_TOKEN, SMARTPHONE


class TestUnitTestBreakdown:
    def test_fig9b_ordering(self):
        """Transfer dominates, CPU beats crypto, encryption is smallest."""
        breakdown = unit_test_breakdown()
        assert breakdown.ordering() == ["transfer", "cpu", "decrypt", "encrypt"]

    def test_total_is_sum(self):
        b = unit_test_breakdown()
        assert b.total() == pytest.approx(
            b.transfer + b.cpu + b.decrypt + b.encrypt
        )

    def test_4kb_partition_time_scale(self):
        """A 4 KB partition takes a handful of milliseconds on the token —
        the scale the paper reports."""
        b = unit_test_breakdown(SECURE_TOKEN)
        assert 1e-3 < b.total() < 20e-3

    def test_faster_device_faster_breakdown(self):
        token = unit_test_breakdown(SECURE_TOKEN)
        phone = unit_test_breakdown(SMARTPHONE)
        assert phone.total() < token.total()

    def test_custom_partition_size(self):
        small = unit_test_breakdown(partition_bytes=1024)
        large = unit_test_breakdown(partition_bytes=8192)
        assert small.total() < large.total()


class TestSoftwareCalibration:
    def test_calibration_runs_and_reports_slowdown(self):
        # whatever engine an earlier test (or the deployment) left selected,
        # the calibration measures the pure-Python one and puts the
        # selection back
        try:
            for selected in ("auto", "ttable", "reference"):
                before = cache.use_engine(selected)
                calibration = calibrate_software_crypto(
                    sample_bytes=1024, repetitions=1
                )
                assert cache.selected_engine() == before
                assert calibration.python_seconds_per_kb > 0
                assert calibration.device_seconds_per_kb > 0
                # pure Python is much slower than a hardware coprocessor —
                # this is exactly why concrete simulation timing uses the
                # device model
                assert calibration.slowdown > 1
        finally:
            cache.use_engine("auto")
