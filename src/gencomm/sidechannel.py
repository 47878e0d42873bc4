"""Reliable transport of the textual prompt over an orthogonal channel.

Chain: frame (u16 length | compressed payload | CRC-32) -> adaptive
arithmetic coding -> zero-pad to whole LDPC blocks -> rate-1/2 (3,6) LDPC ->
BPSK on both quadratures (2 coded bits per complex use) -> AWGN -> LLRs ->
belief propagation -> CRC verify -> decompress.

Noise convention: unit-amplitude BPSK per real dimension with per-dimension
noise variance 10^(-snr_db/10), so the SNR per complex use equals the
configured value and, at rate 1/2, snr_db coincides with Eb/N0 in dB. LLRs
are 2y/sigma_dim^2, clipped to +/-30. CRC-32 uses the reflected polynomial
0xEDB88320. On CRC failure the report carries a failure flag and no text;
the pipeline then samples unconditionally.

The round trip is split so that trials can share the expensive parts:
`transmit_prompt` draws one trial's noisy LLRs, shape (blocks, n);
`decode_prompts` stacks the (trials, blocks, n) LLRs of many trials on the
batch axis of `ldpc_decode_batch` (one block-diagonal BP decode, chunked
there to bound memory); `receive_prompt` deframes one trial's decoded bits.
`send_prompt` is the three in a row for one trial. Framing is pure, so it is cached:
`frame_prompt` per text, the LDPC codeword blocks per (text, code), and
`deframe_prompt` per received byte string. Only the noise, BP and the CRC
of a byte string not seen before cost anything per trial.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .arithmetic import ac_decode, ac_encode
from .errors import DecodeError, FrameError
from .ldpc import LLR_MAX, LdpcCode, ldpc_decode_batch, ldpc_encode, ldpc_make
from .ldpc import ldpc_decode  # noqa: F401  (benchmarks/spans.py traces this binding)

DEFAULT_LDPC_N = 1024
DEFAULT_LDPC_SEED = 7070
DEFAULT_BP_ITERS = 50
LINK_FRAMES_PER_DECODE = 64  # frames `measure_link` holds and decodes at once
MAX_PAYLOAD_BYTES = (1 << 16) - 1


@dataclass(frozen=True)
class SideChannelReport:
    k_o: int                      # complex channel uses consumed
    decoded: Optional[str]        # prompt text, or None on failure
    ok: bool
    bp_iterations: int            # total across codeword blocks
    coded_bits: int


@lru_cache(maxsize=8)
def default_code(n: int = DEFAULT_LDPC_N, seed: int = DEFAULT_LDPC_SEED) -> LdpcCode:
    return ldpc_make(n, seed)


@lru_cache(maxsize=64)
def frame_prompt(text: str) -> bytes:
    """length || payload || crc32(length || payload), payload = compressed text."""
    payload = np.packbits(ac_encode(text.encode("utf-8"))).tobytes()
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameError(f"compressed prompt too large: {len(payload)} bytes")
    head = struct.pack(">H", len(payload)) + payload
    return head + struct.pack(">I", zlib.crc32(head) & 0xFFFFFFFF)


def deframe_prompt(data: bytes) -> str:
    """Inverse of `frame_prompt`; DecodeError on a short, truncated or
    corrupt frame. Cached per byte string (any bytes-like input)."""
    return _deframe(bytes(data))


@lru_cache(maxsize=256)
def _deframe(data: bytes) -> str:
    if len(data) < 6:
        raise DecodeError("frame shorter than header + checksum")
    (length,) = struct.unpack(">H", data[:2])
    if len(data) < 2 + length + 4:
        raise DecodeError("frame truncated")
    head = data[: 2 + length]
    (crc,) = struct.unpack(">I", data[2 + length : 6 + length])
    if zlib.crc32(head) & 0xFFFFFFFF != crc:
        raise DecodeError("CRC mismatch")
    return ac_decode(np.unpackbits(np.frombuffer(head[2:], dtype=np.uint8))).decode("utf-8")


def bpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Even-index bits on I, odd-index on Q; bit 0 -> +1."""
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    return symbols[0::2] + 1j * symbols[1::2]


def bpsk_llrs(y: np.ndarray, snr_db: float) -> np.ndarray:
    sigma_dim2 = 10.0 ** (-snr_db / 10.0)
    dims = np.empty(2 * len(y))
    dims[0::2] = y.real
    dims[1::2] = y.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = 2.0 * dims / sigma_dim2
    llr = np.nan_to_num(llr, nan=0.0, posinf=LLR_MAX, neginf=-LLR_MAX)
    return np.clip(llr, -LLR_MAX, LLR_MAX)


def transmit_bits(
    bits: np.ndarray, snr_db: float, rng: np.random.Generator
) -> np.ndarray:
    """BPSK over AWGN; returns received LLRs for the coded bits."""
    if len(bits) % 2 != 0:
        bits = np.concatenate([bits, np.zeros(1, dtype=bits.dtype)])
    x = bpsk_modulate(bits)
    sigma_dim = 10.0 ** (-snr_db / 20.0)
    noise = sigma_dim * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
    return bpsk_llrs(x + noise, snr_db)


class PromptBits(NamedTuple):
    """BP output for one trial's prompt blocks."""

    info: np.ndarray              # decoded info bits of every block, in order
    iterations: int               # total across the blocks


@lru_cache(maxsize=64)
def _prompt_codeword(text: str, code: LdpcCode) -> np.ndarray:
    """LDPC blocks of the zero-padded frame, shape (blocks, n), read-only."""
    frame_bits = np.unpackbits(np.frombuffer(frame_prompt(text), dtype=np.uint8))
    n_blocks = math.ceil(len(frame_bits) / code.k)
    padded = np.zeros(n_blocks * code.k, dtype=np.uint8)
    padded[: len(frame_bits)] = frame_bits
    coded = np.stack([ldpc_encode(code, block) for block in padded.reshape(n_blocks, code.k)])
    coded.flags.writeable = False
    return coded


def transmit_prompt(
    text: str, snr_db: float, rng: np.random.Generator, code: LdpcCode
) -> np.ndarray:
    """Received LLRs of the coded prompt, shape (blocks, n)."""
    coded = _prompt_codeword(text, code)
    return transmit_bits(coded.ravel(), snr_db, rng).reshape(coded.shape)


def decode_prompts(
    code: LdpcCode, llrs: np.ndarray, max_iters: int = DEFAULT_BP_ITERS
) -> list[PromptBits]:
    """One batched BP decode of every trial's blocks; `llrs` is
    (trials, blocks, n)."""
    trials, blocks, _ = llrs.shape
    res = ldpc_decode_batch(code, llrs.reshape(-1, code.n), max_iters)
    info = res.bits[:, code.info_positions].reshape(trials, -1)
    iterations = res.iterations.reshape(trials, blocks).sum(axis=1)
    return [PromptBits(info[i], int(iterations[i])) for i in range(trials)]


def receive_prompt(text: str, decoded: PromptBits, code: LdpcCode) -> SideChannelReport:
    """CRC-check and decompress one trial's decoded frame; failure is a flag."""
    frame_bits = 8 * len(frame_prompt(text))
    coded_bits = math.ceil(frame_bits / code.k) * code.n
    k_o = math.ceil(coded_bits / 2)
    try:
        text_out = deframe_prompt(np.packbits(decoded.info[:frame_bits]).tobytes())
    except (DecodeError, UnicodeDecodeError):
        text_out = None
    return SideChannelReport(k_o=k_o, decoded=text_out, ok=text_out is not None,
                             bp_iterations=decoded.iterations, coded_bits=coded_bits)


def send_prompt(
    text: str,
    snr_db: float,
    rng: np.random.Generator,
    code: Optional[LdpcCode] = None,
    max_iters: int = DEFAULT_BP_ITERS,
) -> SideChannelReport:
    """Full coded round trip of one prompt; failures are report states."""
    code = code or default_code()
    llrs = transmit_prompt(text, snr_db, rng, code)
    return receive_prompt(text, decode_prompts(code, llrs[None], max_iters)[0], code)


def measure_link(
    code: LdpcCode,
    snr_db: float,
    min_info_bits: int,
    rng: np.random.Generator,
    max_iters: int = DEFAULT_BP_ITERS,
) -> dict:
    """Monte Carlo BER/FER of the coded BPSK link at one operating point.

    Random info words per frame; with the per-dim conventions above snr_db
    equals Eb/N0 in dB at this code rate. Frames are drawn one after another
    from `rng` and decoded LINK_FRAMES_PER_DECODE at a time in one batch.
    """
    frames = math.ceil(min_info_bits / code.k)
    bit_errors = 0
    frame_errors = 0
    for lo in range(0, frames, LINK_FRAMES_PER_DECODE):
        # Draw a group of frames in stream order, then decode them as one batch.
        infos, llrs = [], []
        for _ in range(min(LINK_FRAMES_PER_DECODE, frames - lo)):
            infos.append(rng.integers(0, 2, size=code.k).astype(np.uint8))
            llrs.append(transmit_bits(ldpc_encode(code, infos[-1]), snr_db, rng)[: code.n])
        res = ldpc_decode_batch(code, np.stack(llrs), max_iters)
        errs = np.count_nonzero(res.bits[:, code.info_positions] != np.stack(infos), axis=1)
        bit_errors += int(errs.sum())
        frame_errors += int(np.count_nonzero(errs))
    total_bits = frames * code.k
    return {
        "snr_db": snr_db,
        "info_bits": total_bits,
        "frames": frames,
        "ber": bit_errors / total_bits,
        "fer": frame_errors / frames,
    }
