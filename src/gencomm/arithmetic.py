"""Adaptive order-0 arithmetic coding for the prompt side-channel.

Bit-exact format: 257-symbol alphabet (256 byte values + explicit
end-of-stream symbol 256), all frequencies initialized to 1, coded symbol's
frequency incremented by 32, whole table halved (rounding up, so counts stay
>= 1) whenever the total reaches 2^16, and 32-bit integer range coding in
the low/high/underflow style of Witten, Neal & Cleary (CACM 1987). The
encoder terminates the stream with a single disambiguation '1' bit; the
decoder may consume a bounded number of phantom zero bits past the end of
input.

Each symbol is renormalized at once, as in Moffat, Neal & Witten (ACM TOIS
1998): after narrowing, the leading bits that low and high share are
settled and leave as one word, and the run of underflow bits (low = 01...,
high = 10...) is counted and shifted out in one step. The bits are the same
as those of the one-bit-at-a-time loop.

The decoder finds each symbol by descending a Fenwick tree of the counts
(Fenwick, Softw. Pract. Exp. 1994) instead of summing the table per symbol.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DecodeError, FrameError

ALPHABET = 257
EOF_SYMBOL = 256
INCREMENT = 32
HALVE_AT = 1 << 16
MAX_TEXT_BYTES = (1 << 16) - 1

_STATE_BITS = 32
_MASK = (1 << _STATE_BITS) - 1
_TOP = 1 << (_STATE_BITS - 1)
_LOW_BITS = _MASK >> 1
_PHANTOM_BUDGET = 64
_SLOTS = 512  # Fenwick tree slots: the power of two >= ALPHABET


def _narrow(low: int, high: int, start: int, end: int, total: int):
    """Narrow [low, high] to the symbol's [start, end) of `total` and
    renormalize; returns (low, high, settled, word, under): the `settled`
    leading bits in `word` are final, and `under` underflow bits are pending."""
    span = high - low + 1
    low, high = low + start * span // total, low + end * span // total - 1
    settled = _STATE_BITS - (low ^ high).bit_length()
    word = low >> (_STATE_BITS - settled)
    low = (low << settled) & _MASK
    high = (high << settled) & _MASK | (1 << settled) - 1
    under = _STATE_BITS - 1 - (~(low & ~high) & _LOW_BITS).bit_length()
    low = (low << under) & _LOW_BITS
    high = (high << under) & _LOW_BITS | _TOP | (1 << under) - 1
    return low, high, settled, word, under


def _update(freqs: list[int], total: int, symbol: int) -> int:
    """Count one occurrence of `symbol`; returns the new total."""
    freqs[symbol] += INCREMENT
    total += INCREMENT
    if total >= HALVE_AT:
        freqs[:] = [(f + 1) // 2 for f in freqs]
        total = sum(freqs)
    return total


def _fenwick(freqs: list[int]) -> list[int]:
    """1-based Fenwick tree of `freqs`: slot i sums the i & -i counts ending at
    symbol i - 1."""
    tree = [0, *freqs] + [0] * (_SLOTS - ALPHABET)
    for i in range(1, _SLOTS):
        if i + (i & -i) <= _SLOTS:
            tree[i + (i & -i)] += tree[i]
    return tree


def ac_encode(data: bytes) -> np.ndarray:
    """Compress a byte string; returns the bitstream as a 0/1 uint8 array."""
    if len(data) > MAX_TEXT_BYTES:
        raise FrameError(f"input of {len(data)} bytes exceeds {MAX_TEXT_BYTES}")
    freqs, total = [1] * ALPHABET, ALPHABET
    low, high, pending = 0, _MASK, 0
    out = []
    for symbol in (*data, EOF_SYMBOL):
        start = sum(freqs[:symbol])
        low, high, settled, word, under = _narrow(low, high, start,
                                                  start + freqs[symbol], total)
        if settled:
            bits = format(word, f"0{settled}b")
            # the pending underflow bits follow the first settled bit, inverted
            out.append(bits[0] + ("0" if bits[0] == "1" else "1") * pending + bits[1:])
            pending = 0
        pending += under
        total = _update(freqs, total, symbol)
    out.append("1")
    return np.frombuffer("".join(out).encode(), dtype=np.uint8) - ord("0")


def ac_decode(bits: np.ndarray, max_bytes: int = MAX_TEXT_BYTES) -> bytes:
    """Inverse of ac_encode. Raises ContractError unless `bits` is a 1-D
    array of 0/1 values, and DecodeError on malformed input; never reads
    unboundedly (phantom-bit budget plus an output size cap)."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or ((bits != 0) & (bits != 1)).any():
        raise ContractError("bitstream must be a 1-D array of 0/1 values")
    stream = (bits.astype(np.uint8) + ord("0")).tobytes().decode() + "0" * _PHANTOM_BUDGET
    freqs, total = [1] * ALPHABET, ALPHABET
    tree = _fenwick(freqs)
    low, high = 0, _MASK
    code, pos = int(stream[:_STATE_BITS], 2), _STATE_BITS
    out = bytearray()
    while True:
        value = ((code - low + 1) * total - 1) // (high - low + 1)
        # the symbols before the one holding value: the longest prefix summing to <= value
        symbol, rest, step = 0, value, _SLOTS
        while step := step >> 1:
            if tree[symbol + step] <= rest:
                symbol += step
                rest -= tree[symbol]
        start = value - rest
        low, high, settled, _, under = _narrow(low, high, start, start + freqs[symbol], total)
        code = (code << settled) & _MASK | int("0" + stream[pos:pos + settled], 2)
        pos += settled
        code = code & _TOP | (code << under) & _LOW_BITS | int("0" + stream[pos:pos + under], 2)
        pos += under
        if pos > len(stream):
            raise DecodeError("bitstream exhausted before end-of-stream symbol")
        if symbol == EOF_SYMBOL:
            return bytes(out)
        out.append(symbol)
        if len(out) > max_bytes:
            raise DecodeError(f"decoded size exceeded {max_bytes} bytes")
        halves = total + INCREMENT >= HALVE_AT
        total = _update(freqs, total, symbol)
        if halves:
            tree = _fenwick(freqs)
        else:
            i = symbol + 1
            while i <= _SLOTS:
                tree[i] += INCREMENT
                i += i & -i
