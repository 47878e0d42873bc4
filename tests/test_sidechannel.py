import math
from pathlib import Path

import numpy as np
import pytest

from gencomm import ldpc
from gencomm.config import SNR_DB_MIN, load_config
from gencomm.errors import DecodeError
from gencomm.ldpc import LLR_MAX, ldpc_decode_batch, ldpc_encode, ldpc_make
from gencomm.sidechannel import (awgn_llrs, bpsk_modulate, default_code,
                                 deframe_prompt, frame_prompt, measure_link, prompt_codeword,
                                 receive_prompts, send_prompt, transmit_bits, transmit_prompt)


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

    def test_llrs_past_float_range_clip_without_warning(self, rng):
        # At 3100 dB the noise variance 1e-310 is subnormal and 2y/1e-310
        # overflows to inf, which the clip maps to the largest LLR.
        bits = rng.integers(0, 2, size=64).astype(np.uint8)
        llrs = awgn_llrs(bpsk_modulate(bits), rng.standard_normal(64), 3100.0)
        assert np.array_equal(llrs, np.where(bits == 1, -LLR_MAX, LLR_MAX))

    @pytest.mark.parametrize("snr_db", [SNR_DB_MIN, 0.0, math.inf])
    @pytest.mark.parametrize("extreme", [False, True], ids=["normal", "pm1e308"])
    def test_prompt_llrs_are_finite_within_the_clip(self, code, rng, snr_db, extreme):
        # The pipeline decodes these LLRs unchecked: every SNR a config accepts,
        # and any finite noise draw, must give finite LLRs within +-LLR_MAX.
        normals = rng.standard_normal((3, prompt_codeword("class:3", code).size))
        if extreme:
            normals = np.where(normals < 0.0, -1e308, 1e308)
        llrs = transmit_prompt("class:3", snr_db, normals, code)
        assert np.all(np.isfinite(llrs)) and np.max(np.abs(llrs)) <= LLR_MAX


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


def noiseless_llrs(code, frames):
    """LLRs, shape (len(frames), blocks, n), of byte strings of one length
    zero-padded to whole blocks and sent over a noiseless channel."""
    bits = np.unpackbits(np.frombuffer(b"".join(frames), np.uint8)).reshape(len(frames), -1)
    blocks = math.ceil(bits.shape[1] / code.k)
    info = np.zeros((len(frames), blocks * code.k), np.uint8)
    info[:, : bits.shape[1]] = bits
    coded = ldpc_encode(code, info.reshape(-1, code.k)).reshape(len(frames), blocks, code.n)
    return np.where(coded == 1, -LLR_MAX, LLR_MAX)


class TestReceivePrompts:
    # Frames of 1, 2 and 3 blocks of the n=256 code (128 info bits per block).
    TEXTS = {1: "class:7", 2: "a red fox in snow", 3: "a lighthouse on a cliff at dawn"}

    def test_a_sweep_point_is_one_decode_chunk(self, monkeypatch):
        # A 120-trial point of configs/snr_sweep.cfg sends one block of its
        # n=256 code per trial, and its 120 blocks decode as one BP chunk. The
        # n=1024 code keeps the 32-block chunks that `measure_link` groups by.
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "snr_sweep.cfg")
        side = default_code(cfg.ldpc_n, cfg.ldpc_seed)
        normals = np.random.default_rng(5).standard_normal((120, side.n))
        llrs = transmit_prompt(cfg.prompt, 1.0, normals, side)
        assert llrs.shape == (120, 1, 256)
        calls, decode_chunk = [], ldpc._decode_chunk

        def counted(code, chunk, *rest):
            calls.append(len(chunk))
            decode_chunk(code, chunk, *rest)

        monkeypatch.setattr(ldpc, "_decode_chunk", counted)
        receive_prompts(llrs, side, cfg.bp_iters)
        assert calls == [120]
        assert ldpc_make(1024, 7070).chunk_blocks == 32

    @pytest.mark.parametrize("snr_db", [0.0, 2.0, math.inf])
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_each_row_is_a_lone_call(self, code, snr_db, blocks):
        text = self.TEXTS[blocks]
        assert prompt_codeword(text, code).shape == (blocks, code.n)
        normals = np.stack([np.random.default_rng(seed).standard_normal(blocks * code.n)
                            for seed in range(8)])
        reports = receive_prompts(transmit_prompt(text, snr_db, normals, code), code)
        for seed, report in enumerate(reports):
            lone = transmit_prompt(text, snr_db, normals[seed : seed + 1], code)
            assert receive_prompts(lone, code) == [report]
            assert send_prompt(text, snr_db, np.random.default_rng(seed), code=code) == report
            assert (report.k_o, report.coded_bits) == (blocks * code.n // 2, blocks * code.n)
            assert report.decoded == (text if report.ok else None)
        if snr_db == math.inf:
            assert all(r.ok and r.bp_iterations == blocks for r in reports)

    def test_needs_no_text(self, code):
        (report,) = receive_prompts(noiseless_llrs(code, [frame_prompt("class:7")]), code)
        assert report.ok and report.decoded == "class:7"

    def test_a_flipped_header_bit_is_a_failure_flag(self, code):
        frame = frame_prompt("class:7")
        flipped = []
        for bit in range(16):  # the u16 length header
            corrupt = bytearray(frame)
            corrupt[bit // 8] ^= 0x80 >> bit % 8
            flipped.append(bytes(corrupt))
        reports = receive_prompts(noiseless_llrs(code, [frame, *flipped]), code)
        assert reports[0].ok
        assert all(not r.ok and r.decoded is None for r in reports[1:])

    def test_padding_after_the_crc_is_ignored(self, code):
        frame = frame_prompt("class:7")
        dirty = frame + b"\xff" * (code.k // 8 - len(frame))
        assert len(frame) < len(dirty) == code.k // 8  # one block, padding set
        reports = receive_prompts(noiseless_llrs(code, [dirty]), code)
        assert reports[0].ok and reports[0].decoded == "class:7"


def test_measure_link_clean_channel(code, rng):
    stats = measure_link(code, 20.0, min_info_bits=2000, rng=rng)
    assert stats["ber"] == 0.0 and stats["fer"] == 0.0
    assert stats["info_bits"] >= 2000


def reference_measure_link(code, snr_db, min_info_bits, rng, max_iters=50):
    """The per-frame link loop: draw, encode and transmit one frame at a
    time, then decode code.chunk_blocks frames per batch."""
    frames = math.ceil(min_info_bits / code.k)
    bit_errors = frame_errors = 0
    for lo in range(0, frames, code.chunk_blocks):
        infos, llrs = [], []
        for _ in range(min(code.chunk_blocks, frames - lo)):
            infos.append(rng.integers(0, 2, size=code.k).astype(np.uint8))
            llrs.append(transmit_bits(ldpc_encode(code, infos[-1]), snr_db, rng)[: code.n])
        res = ldpc_decode_batch(code, np.stack(llrs), max_iters)
        errs = np.count_nonzero(res.bits[:, code.info_positions] != np.stack(infos), axis=1)
        bit_errors += int(errs.sum())
        frame_errors += int(np.count_nonzero(errs))
    return {"snr_db": snr_db, "info_bits": frames * code.k, "frames": frames,
            "ber": bit_errors / (frames * code.k), "fer": frame_errors / frames}


@pytest.mark.parametrize("groups, extra", [(0, 1), (1, 0), (1, 1), (2, 2)],
                         ids=["1", "chunk", "chunk+1", "2chunk+2"])
def test_measure_link_matches_per_frame_reference(code, groups, extra):
    # 1 dB leaves frame errors in most frames of a group of code.chunk_blocks.
    # One frame, one full group, a full group and a short one, then three.
    frames = groups * code.chunk_blocks + extra
    args = (code, 1.0, frames * code.k)
    got = measure_link(*args, np.random.default_rng(frames), max_iters=20)
    assert got == reference_measure_link(*args, np.random.default_rng(frames), max_iters=20)


@pytest.mark.parametrize("snr_db", [0.0, 3.0])
def test_measure_link_matches_per_frame_reference_n1024(snr_db):
    code = default_code(1024, 7070)
    args = (code, snr_db, 25 * code.k)
    got = measure_link(*args, np.random.default_rng(7))
    assert got == reference_measure_link(*args, np.random.default_rng(7))
