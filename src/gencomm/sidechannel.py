"""Reliable transport of the textual prompt over an orthogonal channel.

Chain: frame (u16 length | compressed payload | CRC-32) -> adaptive
arithmetic coding -> zero-pad to whole LDPC blocks -> rate-1/2 (3,6) LDPC ->
BPSK on both quadratures (2 coded bits per complex use) -> AWGN -> LLRs ->
belief propagation -> CRC verify -> decompress.

Noise convention: unit-amplitude BPSK per real dimension with per-dimension
noise variance 10^(-snr_db/10), so the SNR per complex use equals the
configured value and, at rate 1/2, snr_db coincides with Eb/N0 in dB.
`bpsk_llrs` works in real arithmetic: coded bit 2i rides on the real part of
complex use i and bit 2i+1 on its imaginary part, so each LLR is
2(x + sigma_dim*n)/sigma_dim^2 of one +/-1 symbol x and one standard normal
n; NaN (as at -inf dB) -> 0, then clipped to +/-30. CRC-32 uses the
reflected polynomial 0xEDB88320. On CRC failure the report carries a
failure flag and no text; the pipeline then samples unconditionally.

The round trip is split so that trials can share the expensive parts:
`transmit_prompt` turns the stacked noise draws of many trials, shape
(trials, blocks*n), into their LLRs, shape (trials, blocks, n), in one set
of array operations; `receive_prompts` decodes them all in one
block-diagonal BP call (`ldpc_decode_batch`, chunked there to bound memory)
and deframes each row, reading the frame length from the frame's own
header, so the receiver needs no sent text. `send_prompt` is the two for
one trial. The LDPC codeword blocks are cached per (text, code) and
`deframe_prompt` per received byte string, so only the noise, BP and the
CRC of a byte string not seen before cost anything per trial.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .arithmetic import ac_decode, ac_encode
from .channel import snr_to_sigma2
from .errors import DecodeError, FrameError
from .ldpc import (DEFAULT_BP_ITERS, LLR_MAX, LdpcCode, ldpc_decode_batch, ldpc_encode,
                   ldpc_make)
from .ldpc import ldpc_decode  # noqa: F401  (benchmarks/spans.py traces this binding)

DEFAULT_LDPC_N = 1024
DEFAULT_LDPC_SEED = 7070
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


def bpsk_llrs(bits: np.ndarray, normals: np.ndarray, snr_db: float) -> np.ndarray:
    """LLRs of coded `bits` (..., 2s) or (2s,) sent as BPSK over AWGN whose
    standard normals are `normals` (..., 2s): the s real parts, then the s
    imaginary parts. Elementwise, so each row gets a lone call's LLRs."""
    s = normals.shape[-1] // 2
    llr = np.empty(normals.shape)
    llr[..., 0::2] = normals[..., :s]
    llr[..., 1::2] = normals[..., s:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        llr *= 10.0 ** (-snr_db / 20.0)
        llr += 1.0 - 2.0 * bits
        llr *= 2.0
        llr /= snr_to_sigma2(snr_db)
    np.nan_to_num(llr, copy=False, nan=0.0, posinf=LLR_MAX, neginf=-LLR_MAX)
    return np.clip(llr, -LLR_MAX, LLR_MAX, out=llr)


def transmit_bits(bits: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """BPSK over AWGN; returns received LLRs for the coded bits."""
    if len(bits) % 2 != 0:
        bits = np.concatenate([bits, np.zeros(1, dtype=bits.dtype)])
    return bpsk_llrs(bits, rng.standard_normal(len(bits)), snr_db)


@lru_cache(maxsize=64)
def prompt_codeword(text: str, code: LdpcCode) -> np.ndarray:
    """LDPC blocks of the zero-padded frame, shape (blocks, n), read-only."""
    frame_bits = np.unpackbits(np.frombuffer(frame_prompt(text), dtype=np.uint8))
    n_blocks = math.ceil(len(frame_bits) / code.k)
    padded = np.zeros(n_blocks * code.k, dtype=np.uint8)
    padded[: len(frame_bits)] = frame_bits
    coded = ldpc_encode(code, padded.reshape(n_blocks, code.k))
    coded.flags.writeable = False
    return coded


def transmit_prompt(text: str, snr_db: float, normals: np.ndarray, code: LdpcCode) -> np.ndarray:
    """Received LLRs of the coded prompt, shape (..., blocks, n), from the
    noise draws `normals` (..., blocks*n) in `transmit_bits` order."""
    coded = prompt_codeword(text, code)
    llrs = bpsk_llrs(coded.ravel(), normals, snr_db)
    return llrs.reshape(normals.shape[:-1] + coded.shape)


def receive_prompts(
    llrs: np.ndarray, code: LdpcCode, max_iters: int = DEFAULT_BP_ITERS
) -> list[SideChannelReport]:
    """One batched BP decode of every trial's blocks, `llrs` (trials, blocks, n),
    then each trial's frame CRC-checked and decompressed; failure is a flag."""
    trials, blocks, _ = llrs.shape
    res = ldpc_decode_batch(code, llrs.reshape(-1, code.n), max_iters)
    frames = np.packbits(res.bits[:, code.info_positions].reshape(trials, blocks * code.k),
                         axis=1)
    iterations = res.iterations.reshape(trials, blocks).sum(axis=1).tolist()
    reports = []
    for frame, its in zip(frames, iterations):
        try:
            text = deframe_prompt(frame)  # the length is the header's; padding is ignored
        except (DecodeError, UnicodeDecodeError):
            text = None
        reports.append(SideChannelReport(k_o=blocks * code.n // 2, decoded=text,
                                         ok=text is not None, bp_iterations=its,
                                         coded_bits=blocks * code.n))
    return reports


def send_prompt(
    text: str,
    snr_db: float,
    rng: np.random.Generator,
    code: Optional[LdpcCode] = None,
    max_iters: int = DEFAULT_BP_ITERS,
) -> SideChannelReport:
    """Full coded round trip of one prompt; failures are report states."""
    code = code or default_code()
    normals = rng.standard_normal((1, prompt_codeword(text, code).size))
    return receive_prompts(transmit_prompt(text, snr_db, normals, code), code, max_iters)[0]


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
    from `rng`, k info bits then n normals as `transmit_bits` draws them, and
    sent through the link as one batch per `code.chunk_blocks` frames, the
    decoder's own chunk. The grouping changes no draw, so no count.
    """
    frames = math.ceil(min_info_bits / code.k)
    bit_errors = 0
    frame_errors = 0
    for lo in range(0, frames, code.chunk_blocks):
        infos = np.empty((min(code.chunk_blocks, frames - lo), code.k), dtype=np.uint8)
        normals = np.empty((len(infos), code.n))
        for i in range(len(infos)):
            infos[i] = rng.integers(0, 2, size=code.k)
            rng.standard_normal(out=normals[i])
        llrs = bpsk_llrs(ldpc_encode(code, infos), normals, snr_db)
        res = ldpc_decode_batch(code, llrs, max_iters)
        errs = np.count_nonzero(res.bits[:, code.info_positions] != infos, axis=1)
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
