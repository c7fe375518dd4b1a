"""Device model tests, including the Fig. 9b cost hierarchy."""

import pytest

from repro.exceptions import ConfigurationError
from repro.tds.device import SECURE_TOKEN, SMART_METER, SMARTPHONE, DeviceProfile


class TestElementaryCosts:
    def test_transfer_time_matches_link_speed(self):
        # 7.9 Mbps → a 16-byte tuple takes ~16.2 µs, the paper's Tt scale.
        t = SECURE_TOKEN.transfer_time(16)
        assert t == pytest.approx(16 * 8 / 7.9e6)
        assert 15e-6 < t < 18e-6

    def test_crypto_time_matches_coprocessor(self):
        # one AES block = 167 cycles at 120 MHz
        assert SECURE_TOKEN.crypto_time(16) == pytest.approx(167 / 120e6)

    def test_crypto_time_rounds_up_to_blocks(self):
        assert SECURE_TOKEN.crypto_time(17) == pytest.approx(2 * 167 / 120e6)
        assert SECURE_TOKEN.crypto_time(0) == 0.0

    def test_cpu_time_linear(self):
        assert SECURE_TOKEN.cpu_time(200) == pytest.approx(2 * SECURE_TOKEN.cpu_time(100))

    def test_ram_slots(self):
        assert SECURE_TOKEN.ram_slots(16) == 64 * 1024 // 16


class TestFig9bHierarchy:
    """§6.2 / Fig. 9b: for a 4 KB partition, transfer > CPU > decrypt >
    encrypt (encryption covers only the small aggregated result)."""

    PARTITION = 4096
    RESULT = 64

    def test_transfer_dominates(self):
        transfer = SECURE_TOKEN.transfer_time(self.PARTITION)
        cpu = SECURE_TOKEN.cpu_time(self.PARTITION)
        crypto = SECURE_TOKEN.crypto_time(self.PARTITION)
        assert transfer > cpu > crypto

    def test_encrypt_much_smaller_than_decrypt(self):
        decrypt = SECURE_TOKEN.crypto_time(self.PARTITION)
        encrypt = SECURE_TOKEN.crypto_time(self.RESULT)
        assert encrypt < decrypt / 10

    def test_tuple_time_near_paper_constant(self):
        # The paper uses Tt = 16 µs for st = 16 B; our model (which also
        # charges CPU conversion work) lands in the same range.
        assert 10e-6 < SECURE_TOKEN.tuple_time(16) < 30e-6


class TestProfiles:
    def test_presets_are_distinct(self):
        assert SECURE_TOKEN.name != SMART_METER.name != SMARTPHONE.name

    def test_smartphone_faster_than_token(self):
        assert SMARTPHONE.transfer_time(4096) < SECURE_TOKEN.transfer_time(4096)
        assert SMARTPHONE.cpu_time(4096) < SECURE_TOKEN.cpu_time(4096)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceProfile("bad", 0, 167, 30, 1e6, 1024)
        with pytest.raises(ConfigurationError):
            DeviceProfile("bad", 1e6, 167, 30, -1, 1024)
        with pytest.raises(ConfigurationError):
            DeviceProfile("bad", 1e6, 167, 30, 1e6, 0)
