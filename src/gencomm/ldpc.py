"""Regular (3,6) rate-1/2 LDPC code with sum-product decoding.

Construction draws a random stub matching between variable and check sockets
(exactly regular for any even n), repairs duplicate edges, runs a bounded
4-cycle reduction pass of degree-preserving edge swaps, and preprocesses a
systematic encoder by Gaussian elimination over GF(2); encoding reads the
parity of packed info bits AND each packed generator row from a byte table.
Decoding is flooding belief propagation with early exit.

Batch axis: `ldpc_decode_batch` decodes B codewords as one block-diagonal code
in chunks of at most CHUNK_EDGES (32768) edges. Messages are slot-major,
(B, 6, m): edge b*6m + j*m + c is slot j of check c of block b. Each block
gets the bits of a lone decode: left products th0*th1*... and right products
th5*th4*... are formed a slot row at a time in `np.cumprod`'s order, and a
variable adds its three incoming messages left to right in check order, as
numpy's axis-1 sum of three terms does. Converged blocks are frozen and the
rest compacted to a buffer prefix. `ldpc_decode` is the batch-of-one call.

Sign convention: positive LLR means bit 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ConstructionError, ContractError, FormatError

LLR_MAX = 30.0
COL_WEIGHT = 3
ROW_WEIGHT = 6
CHUNK_EDGES = 32768  # message-array edges per decode chunk (at least one block)
_BYTE_PARITY = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1) % 2


class LdpcCode:
    def __init__(self, H: np.ndarray, seed: int):
        H = np.asarray(H, dtype=np.uint8)
        m, n = H.shape
        self.H = H
        self.m = m
        self.n = n
        self.seed = seed
        self.rate = (n - m) / n
        pivots, free, parity_gen = _systematic_form(H)
        if len(pivots) != m:
            raise ConstructionError(f"H has GF(2) rank {len(pivots)} < {m}")
        self.pivot_positions = pivots
        self.info_positions = free
        self.packed_parity_gen = np.packbits(parity_gen, axis=1)  # (m, k/8): GF(2) map

    @property
    def k(self) -> int:
        return self.n - self.m

    # Decode layout for the largest chunk, built lazily: (blocks per chunk,
    # check_vars (B, 6, m): the variable of each edge, var_edges (3, B, n):
    # each variable's edges in check order). Smaller chunks use a prefix.
    def _views(self):
        views = getattr(self, "_views_cache", None)
        if views is None:
            m, n = self.m, self.n
            rows, cols = np.nonzero(self.H)
            check_vars = cols[np.argsort(rows, kind="stable")].reshape(m, ROW_WEIGHT)
            by_var = np.argsort(check_vars.ravel(), kind="stable")
            var_edges = (by_var % ROW_WEIGHT * m + by_var // ROW_WEIGHT).reshape(n, COL_WEIGHT).T
            blocks = np.arange(max(1, CHUNK_EDGES // (m * ROW_WEIGHT)))
            views = (len(blocks), np.ascontiguousarray(check_vars.T) + (blocks * n)[:, None, None],
                     np.ascontiguousarray(var_edges)[:, None] + (blocks * m * ROW_WEIGHT)[:, None])
            self._views_cache = views
        return views


def _systematic_form(H: np.ndarray):
    """Reduced row echelon form over GF(2); returns (pivot cols, free cols,
    parity generator) so that codeword[pivots] = parity_gen @ codeword[free]."""
    work = H.astype(np.uint8).copy()
    m, n = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        hits = np.nonzero(work[r:, c])[0]
        if len(hits) == 0:
            continue
        lead = r + hits[0]
        if lead != r:
            work[[r, lead]] = work[[lead, r]]
        others = np.nonzero(work[:, c])[0]
        others = others[others != r]
        work[others] ^= work[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    pivot_arr = np.array(pivots, dtype=np.int64)
    free_arr = np.setdiff1d(np.arange(n), pivot_arr)
    parity_gen = work[: len(pivots)][:, free_arr]
    return pivot_arr, free_arr, parity_gen


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


def _reduce_4cycles(cols, rows, rng: np.random.Generator, m: int, n: int, passes: int = 8):
    """Break length-4 cycles (two columns sharing two rows) by degree-
    preserving edge swaps; bounded effort, residual cycles are tolerated."""
    n_edges = len(cols)
    for _ in range(passes):
        order = np.argsort(cols, kind="stable")
        edge_idx = order.reshape(n, COL_WEIGHT)
        row_view = rows[edge_idx]
        offenders: list[int] = []
        pair_slots = [(0, 1), (0, 2), (1, 2)]
        keys = []
        slots = []
        for a, b in pair_slots:
            lo = np.minimum(row_view[:, a], row_view[:, b]).astype(np.int64)
            hi = np.maximum(row_view[:, a], row_view[:, b]).astype(np.int64)
            keys.append(lo * m + hi)
            slots.append(np.full(n, b))
        key_all = np.concatenate(keys)
        col_all = np.tile(np.arange(n), len(pair_slots))
        slot_all = np.concatenate(slots)
        sort = np.argsort(key_all, kind="stable")
        dup_mask = np.zeros(len(key_all), dtype=bool)
        dup_mask[sort[1:]] = key_all[sort][1:] == key_all[sort][:-1]
        for flat in np.nonzero(dup_mask)[0]:
            offenders.append(edge_idx[col_all[flat], slot_all[flat]])
        if not offenders:
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
    return cols, rows


def ldpc_make(n: int, seed: int, max_attempts: int = 20) -> LdpcCode:
    """Seeded regular (3,6) code of length n (rate 1/2); deterministic per seed."""
    if n < 2 * ROW_WEIGHT or n % 2 != 0:
        raise ConfigurationError(f"codeword length must be even and >= {2 * ROW_WEIGHT}")
    m = n // 2
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        try:
            cols, rows = _random_regular_edges(rng, m, n)
        except ConstructionError:
            continue
        cols, rows = _reduce_4cycles(cols, rows, rng, m, n)
        H = np.zeros((m, n), dtype=np.uint8)
        H[rows, cols] = 1
        try:
            return LdpcCode(H, seed=seed)
        except ConstructionError:
            continue
    raise ConstructionError(f"no full-rank (3,6) code found in {max_attempts} attempts")


def ldpc_encode(code: LdpcCode, info_bits: np.ndarray) -> np.ndarray:
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.shape != (code.k,):
        raise ContractError(f"expected {code.k} info bits, got shape {info_bits.shape}")
    codeword = np.zeros(code.n, dtype=np.uint8)
    codeword[code.info_positions] = info_bits
    masked = code.packed_parity_gen & np.packbits(info_bits)
    codeword[code.pivot_positions] = _BYTE_PARITY[np.bitwise_xor.reduce(masked, axis=1)]
    return codeword


class DecodeResult(NamedTuple):
    bits: np.ndarray
    converged: bool
    iterations: int


class BatchDecodeResult(NamedTuple):
    bits: np.ndarray          # (B, n) uint8
    converged: np.ndarray     # (B,) bool
    iterations: np.ndarray    # (B,) int64


def ldpc_decode(code: LdpcCode, llrs: np.ndarray, max_iters: int = 50) -> DecodeResult:
    """Flooding sum-product decoding; non-convergence is a flag, not an error."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.n,):
        raise ContractError(f"expected {code.n} LLRs, got shape {llrs.shape}")
    res = ldpc_decode_batch(code, llrs[None], max_iters)
    return DecodeResult(res.bits[0], bool(res.converged[0]), int(res.iterations[0]))


def ldpc_decode_batch(
    code: LdpcCode, llrs: np.ndarray, max_iters: int = 50
) -> BatchDecodeResult:
    """`ldpc_decode` of every row of a (B, n) LLR array, bit for bit."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ContractError(f"expected (B, {code.n}) LLRs, got shape {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise ContractError("LLRs must be finite (clip infinities before decoding)")
    if max_iters < 0:
        raise ContractError(f"max_iters must be >= 0, got {max_iters}")
    out = BatchDecodeResult(bits=np.empty(llrs.shape, dtype=np.uint8),
                            converged=np.zeros(len(llrs), dtype=bool),
                            iterations=np.full(len(llrs), max_iters, dtype=np.int64))
    chunk = code._views()[0]
    for lo in range(0, len(llrs), chunk):
        _decode_chunk(code, llrs[lo : lo + chunk], max_iters, lo, out)
    return out


def _decode_chunk(code: LdpcCode, llrs: np.ndarray, max_iters: int, first: int,
                  out: BatchDecodeResult) -> None:
    """Flooding BP on blocks first.. of `out` in prefixes of preallocated
    buffers; v2c turns into tanh(v2c / 2) in place each iteration."""
    _, all_check_vars, all_var_edges = code._views()
    active = np.arange(first, first + len(llrs))
    nb, llrs = len(llrs), llrs.copy()
    v2c, bits = np.take(llrs, all_check_vars[:nb]), llrs < 0
    c2v, odd = np.empty_like(v2c), np.empty(v2c.shape, dtype=bool)
    total, incoming = np.empty_like(llrs), np.empty_like(llrs)
    for it in range(1, max_iters + 1):
        th, c, t = v2c[:nb], c2v[:nb], total[:nb]
        np.tanh(np.divide(np.clip(th, -LLR_MAX, LLR_MAX, out=th), 2.0, out=th), out=th)
        # Left, then right running products in cumprod's order; slot 0 ends as th5*...*th1.
        c[:, 1], c[:, 0] = th[:, 0], th[:, -1]
        for j in range(2, ROW_WEIGHT):
            np.multiply(c[:, j - 1], th[:, j - 1], out=c[:, j])
        for j in range(ROW_WEIGHT - 2, 0, -1):
            c[:, j] *= c[:, 0]
            c[:, 0] *= th[:, j]
        np.multiply(np.arctanh(c, out=c), 2.0, out=c)
        # llrs + ((c2v[e0] + c2v[e1]) + c2v[e2]): numpy's axis-1 sum order.
        np.take(c, all_var_edges[0, :nb], out=t, mode="clip")
        for k in range(1, COL_WEIGHT):
            t += np.take(c, all_var_edges[k, :nb], out=incoming[:nb], mode="clip")
        t += llrs[:nb]
        np.take(t, all_check_vars[:nb], out=th, mode="clip")
        np.less(th, 0, out=odd[:nb])       # bits[check_vars]
        th -= c
        np.less(t, 0, out=bits[:nb])
        unsatisfied = np.bitwise_xor.reduce(odd[:nb], axis=1).any(axis=1)
        if unsatisfied.all():
            continue
        # Freeze the blocks that converged, then compact the rest to a prefix.
        done = ~unsatisfied
        out.bits[active[done]] = bits[:nb][done]
        out.converged[active[done]] = True
        out.iterations[active[done]] = it
        active = active[unsatisfied]
        if len(active) == 0:
            return
        for buf in (llrs, bits, v2c):
            buf[: len(active)] = buf[:nb][unsatisfied]
        nb = len(active)
    out.bits[active] = bits[:nb]


def export_alist(code: LdpcCode, path) -> None:
    """Standard alist layout (1-based indices, zero padding)."""
    H = code.H
    m, n = H.shape
    col_w = H.sum(axis=0)
    row_w = H.sum(axis=1)
    lines = [f"{n} {m}", f"{col_w.max()} {row_w.max()}",
             " ".join(str(w) for w in col_w), " ".join(str(w) for w in row_w)]
    for c in range(n):
        idx = np.nonzero(H[:, c])[0] + 1
        idx = np.concatenate([idx, np.zeros(col_w.max() - len(idx), dtype=np.int64)])
        lines.append(" ".join(str(i) for i in idx))
    for r in range(m):
        idx = np.nonzero(H[r])[0] + 1
        idx = np.concatenate([idx, np.zeros(row_w.max() - len(idx), dtype=np.int64)])
        lines.append(" ".join(str(i) for i in idx))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_alist(path, seed: int = -1) -> LdpcCode:
    """Parse an alist file. The column and the row lists must agree, so a
    truncated or malformed file raises FormatError."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    try:
        n, m = (int(v) for v in lines[0].split())
        H = np.zeros((m, n), dtype=np.uint8)
        by_rows = np.zeros((m, n), dtype=np.uint8)
        for c in range(n):
            H[_alist_indices(lines[4 + c], m), c] = 1
        for r in range(m):
            by_rows[r, _alist_indices(lines[4 + n + r], n)] = 1
    except (IndexError, ValueError) as exc:
        raise FormatError(f"malformed alist file {path}: {exc}") from None
    if not np.array_equal(H, by_rows):
        raise FormatError(f"alist file {path}: column and row lists disagree")
    return LdpcCode(H, seed=seed)


def _alist_indices(line: str, bound: int) -> np.ndarray:
    """0-based positions from one 1-based, zero-padded alist line."""
    idx = np.array(line.split(), dtype=np.int64)
    idx = idx[idx != 0]
    if np.any((idx < 1) | (idx > bound)):
        raise ValueError(f"index outside 1..{bound}")
    return idx - 1
