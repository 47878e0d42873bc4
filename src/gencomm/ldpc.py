"""Regular (3,6) rate-1/2 LDPC code with sum-product decoding.

Construction draws a random stub matching between variable and check sockets
(exactly regular for any even n), repairs duplicate edges, runs a bounded
4-cycle reduction pass of degree-preserving edge swaps, and preprocesses a
systematic encoder by Gaussian elimination over GF(2); encoding reads the
parity of packed info bits AND each packed generator row from a byte table.
Decoding is flooding belief propagation with early exit.

Batch axis: `ldpc_decode_batch` decodes B codewords as one block-diagonal code
in chunks of CHUNK_EDGES (98304) edges, but of at least MIN_CHUNK_BLOCKS (32)
blocks, so a gather row holds at least 128 bytes. A chunk's float32 message
array is then about 384 KB: 128 blocks of n=256, so a 120-trial sweep point's
prompts decode as one chunk, and 32 of n=1024. On 2 CPUs, smaller chunks
decoded n=256 batches slower, and larger ones a 120-block batch no faster.
Messages are slot-outer with the block innermost, (6, m, nb):
edge (j*m + c)*nb + b is slot j of check c of active block b, so a slot is one
contiguous run and the gathers move rows of nb values. Each block gets a lone
decode's bits: left products th0*th1*... and right products th5*th4*... are
formed a slot at a time in `np.cumprod`'s order, and a variable adds its three
messages left to right in check order, as numpy's axis-1 sum does. Converged
blocks are frozen: the last live columns move into their places and the arrays
shrink to the live width.

Messages are float32 and kept at half scale: v2c / 2, and c2v / 2 = arctanh of
the running product of tanh(v2c / 2), so no pass multiplies by 0.5 or 2. The
float64 channel LLRs, at most LLR_MAX in size, are halved into float32 (a
float64 subnormal turns into a zero of its sign; the iteration-0 hard decision
still reads the float64 value). v2c is not clipped at LLR_MAX: float32 tanh is
exactly ±1 from |x| of about 9 to 10 on, below LLR_MAX / 2, so a clip there
would move no value. Five saturated tanh multiply to exactly ±1, whose arctanh
is infinite, so the running product is clamped to ±(1 - 2**-24), the largest
float32 below 1, before arctanh: that caps a check message at about ±8.66 at
half scale, ±17.3 at full scale. Iteration 1's tanh is taken once per variable,
before its value is spread to the variable's edges.

Sign convention: positive LLR means bit 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ConstructionError, ContractError

LLR_MAX = 30.0
COL_WEIGHT = 3
ROW_WEIGHT = 6
CHUNK_EDGES = 98304  # message-array edges per decode chunk (384 KB in float32),
MIN_CHUNK_BLOCKS = 32  # but at least this many blocks, so a gather row holds 128 bytes
DEFAULT_BP_ITERS = 50
MAKE_ATTEMPTS = 20  # random constructions tried before giving up
REDUCE_4CYCLE_PASSES = 8  # bounded effort of the 4-cycle repair
# Largest float32 below 1: the running product's clamp, so arctanh stays finite.
_PRODUCT_MAX = np.nextafter(np.float32(1), np.float32(0))
_BYTE_PARITY = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1) % 2


class LdpcCode:
    def __init__(self, H: np.ndarray):
        H = np.asarray(H, dtype=np.uint8)
        m, n = H.shape
        self.H = H
        self.m = m
        self.n = n
        self.rate = (n - m) / n
        pivots, free, parity_gen = _systematic_form(H)
        if len(pivots) != m:
            raise ConstructionError(f"H has GF(2) rank {len(pivots)} < {m}")
        self.pivot_positions = pivots
        self.info_positions = free
        self.packed_parity_gen = np.packbits(parity_gen, axis=1)  # (m, k/8): GF(2) map
        # Decode layout. Message row j*m + c is slot j of check c and holds one
        # value per active block; slot_vars (6m,) is each row's variable and
        # var_edges (3, n) each variable's rows in check order.
        rows, cols = np.nonzero(H)
        check_vars = cols[np.argsort(rows, kind="stable")].reshape(m, ROW_WEIGHT)
        by_var = np.argsort(check_vars.ravel(), kind="stable").reshape(n, COL_WEIGHT)
        self.chunk_blocks = max(MIN_CHUNK_BLOCKS, CHUNK_EDGES // (m * ROW_WEIGHT))
        self.slot_vars = check_vars.T.ravel()
        self.var_edges = np.ascontiguousarray((by_var % ROW_WEIGHT * m + by_var // ROW_WEIGHT).T)

    @property
    def k(self) -> int:
        return self.n - self.m


def _systematic_form(H: np.ndarray):
    """Reduced row echelon form over GF(2); returns (pivot cols, free cols,
    parity generator) so that codeword[pivots] = parity_gen @ codeword[free].
    Rows are packed in uint64 words; a pivot's row is the first unused row
    with its bit. Rows are read out in pivot order instead of being swapped:
    the form is unique, so this equals elimination with row swaps."""
    m, n = H.shape
    packed = np.packbits(np.pad(H, ((0, 0), (0, -n % 64))), axis=1, bitorder="little")
    work = packed.view("<u8").astype(np.uint64)  # bit c of a row: word c // 64
    unused = np.ones(m, dtype=bool)
    pivots, pivot_rows = [], []
    for c in range(n):
        if len(pivots) == m:
            break
        hits = np.flatnonzero(work[:, c // 64] & np.uint64(1 << c % 64))
        lead = hits[unused[hits]][:1]
        if len(lead) == 0:
            continue
        work[hits[hits != lead[0]]] ^= work[lead[0]]
        unused[lead[0]] = False
        pivots.append(c)
        pivot_rows.append(lead[0])
    pivot_arr = np.array(pivots, dtype=np.int64)
    free = np.ones(n, dtype=bool)  # not np.setdiff1d, which imports numpy.ma
    free[pivot_arr] = False
    free_arr = np.flatnonzero(free)
    rows = work[pivot_rows].astype("<u8").view(np.uint8)
    reduced = np.unpackbits(rows, axis=1, count=n, bitorder="little")
    return pivot_arr, free_arr, reduced[:, free_arr]


def _random_regular_edges(rng: np.random.Generator, m: int, n: int):
    cols = np.repeat(np.arange(n), COL_WEIGHT)
    rows = rng.permutation(np.repeat(np.arange(m), ROW_WEIGHT))
    for _ in range(200):
        key = cols.astype(np.int64) * m + rows
        order = np.argsort(key, kind="stable")
        dup = order[1:][key[order][1:] == key[order][:-1]]
        if len(dup) == 0:
            return cols, rows
        swaps = rng.integers(0, len(rows), size=len(dup))
        for pos, j in zip(dup, swaps):
            rows[pos], rows[j] = rows[j], rows[pos]
    raise ConstructionError("could not remove duplicate edges")


def _reduce_4cycles(cols, rows, rng: np.random.Generator, m: int, n: int):
    """Break length-4 cycles (two columns sharing two rows) by degree-
    preserving edge swaps; bounded effort, residual cycles are tolerated.
    A swap exchanges two edges' rows, so `cols` stays; returns the rows."""
    n_edges = len(cols)
    edge_idx = np.argsort(cols, kind="stable").reshape(n, COL_WEIGHT)
    first, second = np.array([0, 0, 1]), np.array([1, 2, 2])  # a column's slot pairs
    for _ in range(REDUCE_4CYCLE_PASSES):
        row_view = rows[edge_idx].astype(np.int64)
        lo = np.minimum(row_view[:, first], row_view[:, second])
        hi = np.maximum(row_view[:, first], row_view[:, second])
        key_all = (lo * m + hi).T.ravel()  # pair-major: entry p*n + col
        sort = np.argsort(key_all, kind="stable")
        dup_mask = np.zeros(len(key_all), dtype=bool)
        dup_mask[sort[1:]] = key_all[sort][1:] == key_all[sort][:-1]
        flat = np.flatnonzero(dup_mask)
        offenders = edge_idx[flat % n, second[flat // n]]
        if len(offenders) == 0:
            break
        edge_set = set(zip(cols.tolist(), rows.tolist()))
        for e in offenders:
            partner = int(rng.integers(0, n_edges))
            c1, r1 = int(cols[e]), int(rows[e])
            c2, r2 = int(cols[partner]), int(rows[partner])
            if c1 == c2 or r1 == r2:
                continue
            if (c1, r2) in edge_set or (c2, r1) in edge_set:
                continue
            edge_set.discard((c1, r1))
            edge_set.discard((c2, r2))
            edge_set.add((c1, r2))
            edge_set.add((c2, r1))
            rows[e], rows[partner] = r2, r1
    return rows


def ldpc_make(n: int, seed: int) -> LdpcCode:
    """Seeded regular (3,6) code of length n (rate 1/2); deterministic per seed."""
    if n < 2 * ROW_WEIGHT or n % 2 != 0:
        raise ConfigurationError(f"codeword length must be even and >= {2 * ROW_WEIGHT}")
    m = n // 2
    rng = np.random.default_rng(seed)
    for _ in range(MAKE_ATTEMPTS):
        try:
            cols, rows = _random_regular_edges(rng, m, n)
        except ConstructionError:
            continue
        rows = _reduce_4cycles(cols, rows, rng, m, n)
        H = np.zeros((m, n), dtype=np.uint8)
        H[rows, cols] = 1
        try:
            return LdpcCode(H)
        except ConstructionError:
            continue
    raise ConstructionError(f"no full-rank (3,6) code found in {MAKE_ATTEMPTS} attempts")


def ldpc_encode(code: LdpcCode, info_bits: np.ndarray) -> np.ndarray:
    """Codewords (..., n) of info words (..., k), each as a lone call's."""
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.shape[-1:] != (code.k,):
        raise ContractError(f"expected (..., {code.k}) info bits, got shape {info_bits.shape}")
    codeword = np.zeros(info_bits.shape[:-1] + (code.n,), dtype=np.uint8)
    codeword[..., code.info_positions] = info_bits
    masked = code.packed_parity_gen & np.packbits(info_bits, axis=-1)[..., None, :]
    codeword[..., code.pivot_positions] = _BYTE_PARITY[np.bitwise_xor.reduce(masked, axis=-1)]
    return codeword


class DecodeResult(NamedTuple):
    bits: np.ndarray
    converged: bool
    iterations: int


class BatchDecodeResult(NamedTuple):
    bits: np.ndarray          # (B, n) uint8
    converged: np.ndarray     # (B,) bool
    iterations: np.ndarray    # (B,) int64


def ldpc_decode(code: LdpcCode, llrs: np.ndarray,
                max_iters: int = DEFAULT_BP_ITERS) -> DecodeResult:
    """Flooding sum-product decoding; non-convergence is a flag, not an error."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.n,):
        raise ContractError(f"expected {code.n} LLRs, got shape {llrs.shape}")
    res = ldpc_decode_batch(code, llrs[None], max_iters)
    return DecodeResult(res.bits[0], bool(res.converged[0]), int(res.iterations[0]))


def ldpc_decode_batch(
    code: LdpcCode, llrs: np.ndarray, max_iters: int = DEFAULT_BP_ITERS
) -> BatchDecodeResult:
    """`ldpc_decode` of every row of a (B, n) LLR array, bit for bit."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ContractError(f"expected (B, {code.n}) LLRs, got shape {llrs.shape}")
    # Two reductions, no array-sized temporary; a NaN fails both comparisons.
    if not (llrs.min(initial=0.0) >= -LLR_MAX and llrs.max(initial=0.0) <= LLR_MAX):
        raise ContractError(f"LLRs must lie in [-{LLR_MAX:g}, {LLR_MAX:g}] (clip them first)")
    if max_iters < 0:
        raise ContractError(f"max_iters must be >= 0, got {max_iters}")
    out = BatchDecodeResult(bits=np.empty(llrs.shape, dtype=np.uint8),
                            converged=np.zeros(len(llrs), dtype=bool),
                            iterations=np.full(len(llrs), max_iters, dtype=np.int64))
    for lo in range(0, len(llrs), code.chunk_blocks):
        _decode_chunk(code, llrs[lo : lo + code.chunk_blocks], max_iters, lo, out)
    return out


def _decode_chunk(code: LdpcCode, llrs: np.ndarray, max_iters: int, first: int,
                  out: BatchDecodeResult) -> None:
    """Flooding BP on blocks first.. of `out`, block b in column b of the (6, m,
    nb) messages and (n, nb) sums, in float32 at half scale (see the module
    docstring): v2c / 2 turns into tanh(v2c / 2) in place, and the three c2v / 2
    of every variable are gathered by one take into (3, n, nb)."""
    active = np.arange(first, first + len(llrs))
    bits = np.less(llrs.T, 0, order="C")
    lam = np.multiply(llrs.T, 0.5, dtype=np.float32, order="C")  # channel LLRs / 2, (n, nb)
    th = np.take(np.tanh(lam), code.slot_vars, axis=0).reshape(ROW_WEIGHT, code.m, -1)
    c_buf, odd_buf = np.empty(th.size, dtype=np.float32), np.empty(th.size, dtype=bool)
    total_buf = np.empty(lam.size, dtype=np.float32)
    for it in range(1, max_iters + 1):
        # Work arrays: the leading part of each buffer, as the columns shrink.
        c, odd = c_buf[:th.size].reshape(th.shape), odd_buf[:th.size].reshape(th.shape)
        total = total_buf[:lam.size].reshape(lam.shape)
        if it > 1:
            np.tanh(th, out=th)
        # Left, then right running products in cumprod's order; slot 0 ends as th5*...*th1.
        np.multiply(th[0], th[1], out=c[2])
        for j in range(3, ROW_WEIGHT):
            np.multiply(c[j - 1], th[j - 1], out=c[j])
        c[4] *= th[5]
        np.multiply(th[5], th[4], out=c[0])
        for j in range(ROW_WEIGHT - 3, 1, -1):
            c[j] *= c[0]
            c[0] *= th[j]
        np.multiply(th[0], c[0], out=c[1])
        c[0] *= th[1]
        np.clip(c, -_PRODUCT_MAX, _PRODUCT_MAX, out=c)
        np.arctanh(c, out=c)
        # lam + ((c2v[e0] + c2v[e1]) + c2v[e2]): numpy's axis-1 sum order. The
        # (3, n, nb) gathered c2v reuse th's buffer, which the products consumed.
        edges = c.reshape(-1, len(active))
        incoming = np.take(edges, code.var_edges.ravel(), axis=0, mode="clip",
                           out=th.reshape(edges.shape)).reshape(COL_WEIGHT, code.n, -1)
        np.add(incoming[0], incoming[1], out=total)
        total += incoming[2]
        total += lam
        np.take(total, code.slot_vars, axis=0, out=th.reshape(edges.shape), mode="clip")
        np.less(th, 0, out=odd)            # bits[check_vars]
        th -= c
        np.less(total, 0, out=bits)
        unsatisfied = np.bitwise_xor.reduce(odd, axis=0).any(axis=0)
        if unsatisfied.all():
            continue
        # Freeze the blocks that converged. The live columns from nb on fill
        # the frozen ones below nb, and the first nb columns are kept.
        done = np.flatnonzero(~unsatisfied)
        out.bits[active[done]] = bits[:, done].T
        out.converged[active[done]] = True
        out.iterations[active[done]] = it
        nb = len(active) - len(done)
        if nb == 0:
            return
        holes, movers = done[done < nb], nb + np.flatnonzero(unsatisfied[nb:])
        for a in (active, lam, bits, th):
            a[..., holes] = a[..., movers]
        active = active[:nb]
        lam, bits, th = (np.ascontiguousarray(a[..., :nb]) for a in (lam, bits, th))
    out.bits[active] = bits.T
