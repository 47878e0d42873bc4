import math

import numpy as np
import pytest

from gencomm.errors import DecodeError
from gencomm.ldpc import ldpc_make
from gencomm.sidechannel import (bpsk_modulate, deframe_prompt, frame_prompt,
                                 measure_link, send_prompt, transmit_bits)


@pytest.fixture(scope="module")
def code():
    return ldpc_make(256, seed=42)


class TestFraming:
    def test_roundtrip(self):
        text = "a cheetah sprinting across dry savanna grass"
        assert deframe_prompt(frame_prompt(text)) == text

    def test_unicode_roundtrip(self):
        text = "野生の чита — fast ✨"
        assert deframe_prompt(frame_prompt(text)) == text

    def test_crc_detects_corruption(self):
        frame = bytearray(frame_prompt("hello"))
        frame[3] ^= 0x40
        with pytest.raises(DecodeError):
            deframe_prompt(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = frame_prompt("hello")
        with pytest.raises(DecodeError):
            deframe_prompt(frame[:4])

    def test_frame_file_roundtrip(self, tmp_path):
        path = tmp_path / "prompt.frame"
        n = path.write_bytes(frame_prompt("dusk over a mountain lake"))
        assert path.stat().st_size == n
        assert deframe_prompt(path.read_bytes()) == "dusk over a mountain lake"


class TestBpsk:
    def test_mapping_convention(self):
        # bit 0 -> +1; even bits on I, odd bits on Q
        sym = bpsk_modulate(np.array([0, 1, 1, 0], dtype=np.uint8))
        assert np.array_equal(sym, np.array([1.0 - 1.0j, -1.0 + 1.0j]))

    def test_noiseless_llrs_saturate_correct_sign(self, rng):
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        llrs = transmit_bits(bits, float("inf"), rng)
        assert np.array_equal(llrs < 0, bits.astype(bool))
        assert np.all(np.abs(llrs) == 30.0)


class TestSendPrompt:
    def test_noiseless_roundtrip_and_accounting(self, code, rng):
        text = "two astronauts repairing a solar panel"
        report = send_prompt(text, float("inf"), rng, code=code)
        assert report.ok and report.decoded == text
        frame_bits = len(frame_prompt(text)) * 8
        blocks = math.ceil(frame_bits / code.k)
        assert report.coded_bits == blocks * code.n
        assert report.k_o == math.ceil(report.coded_bits / 2)

    def test_multi_block_prompt(self, code, rng):
        text = "long prompt " * 40  # compresses to more than one 128-bit block
        report = send_prompt(text, 300.0, rng, code=code)
        assert report.ok and report.decoded == text
        assert report.coded_bits > code.n

    def test_failure_is_flag_not_exception(self, code, rng):
        report = send_prompt("payload", -40.0, rng, code=code)
        assert not report.ok
        assert report.decoded is None
        assert report.k_o == math.ceil(report.coded_bits / 2)

    def test_good_snr_high_success(self, code):
        ok = 0
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            ok += send_prompt("status report alpha", 6.0, rng, code=code).ok
        assert ok >= 48

    def test_deterministic_given_stream(self, code):
        a = send_prompt("abc", 2.0, np.random.default_rng(5), code=code)
        b = send_prompt("abc", 2.0, np.random.default_rng(5), code=code)
        assert (a.ok, a.decoded, a.bp_iterations) == (b.ok, b.decoded, b.bp_iterations)


def test_measure_link_clean_channel(code, rng):
    stats = measure_link(code, 20.0, min_info_bits=2000, rng=rng)
    assert stats["ber"] == 0.0 and stats["fer"] == 0.0
    assert stats["info_bits"] >= 2000
