"""Regular (3,6) rate-1/2 LDPC code with sum-product decoding.

Construction draws a random stub matching between variable and check sockets
(exactly regular for any even n), repairs duplicate edges, runs a bounded
4-cycle reduction pass of degree-preserving edge swaps, and preprocesses a
systematic encoder by Gaussian elimination over GF(2). Decoding is flooding
belief propagation on dense (checks x 6) message arrays with early exit once
all parity checks are satisfied.

Batch axis: `ldpc_decode_batch` decodes B codewords of one code as a single
block-diagonal code of length B*n. Block b's check rows index variables
offset by b*n and its variable edges index messages offset by b*m*6, so the
flooding kernel runs unchanged and every block sees exactly the arithmetic
of a lone decode. Each block stops at its own convergence iteration: its bits
and count are frozen and the active set is compacted. Blocks are decoded in
chunks of at most CHUNK_EDGES edges, which bounds the message arrays'
memory whatever the batch size. `ldpc_decode` is the batch-of-one call.

Sign convention: positive LLR means bit 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ConstructionError, ContractError, FormatError

LLR_MAX = 30.0
COL_WEIGHT = 3
ROW_WEIGHT = 6
CHUNK_EDGES = 8192  # message-array edges per decode chunk (at least one block)


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
        self.parity_gen = parity_gen  # (m, k): parity bits as GF(2) map of info bits

    @property
    def k(self) -> int:
        return self.n - self.m

    # Dense message-passing layout of one decode chunk, built lazily:
    # (blocks per chunk, check_vars, var_edges) for that many stacked copies
    # of the code. A chunk with fewer blocks uses a prefix of each array.
    def _views(self):
        views = getattr(self, "_views_cache", None)
        if views is None:
            rows, cols = np.nonzero(self.H)
            order = np.argsort(rows, kind="stable")
            check_vars = cols[order].reshape(self.m, ROW_WEIGHT)
            by_var = np.argsort(check_vars.ravel(), kind="stable")
            var_edges = by_var.reshape(self.n, COL_WEIGHT)
            blocks = np.arange(max(1, CHUNK_EDGES // (self.m * ROW_WEIGHT)))
            check_vars = check_vars[None] + (blocks * self.n)[:, None, None]
            var_edges = var_edges[None] + (blocks * self.m * ROW_WEIGHT)[:, None, None]
            views = (len(blocks), check_vars.reshape(-1, ROW_WEIGHT),
                     var_edges.reshape(-1, COL_WEIGHT))
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
    codeword[code.pivot_positions] = (code.parity_gen @ info_bits.astype(np.int64)) % 2
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
    out = BatchDecodeResult(bits=np.empty(llrs.shape, dtype=np.uint8),
                            converged=np.zeros(len(llrs), dtype=bool),
                            iterations=np.full(len(llrs), max_iters, dtype=np.int64))
    chunk = code._views()[0]
    for lo in range(0, len(llrs), chunk):
        _decode_chunk(code, llrs[lo : lo + chunk], max_iters, lo, out)
    return out


def _decode_chunk(code: LdpcCode, llrs: np.ndarray, max_iters: int, first: int,
                  out: BatchDecodeResult) -> None:
    """Flooding BP on blocks first.. of `out`, stacked block-diagonally."""
    m, n = code.m, code.n
    _, all_check_vars, all_var_edges = code._views()
    active = np.arange(first, first + len(llrs))
    llrs = llrs.ravel()
    check_vars = all_check_vars[: len(active) * m]
    var_edges = all_var_edges[: len(active) * n]
    v2c = llrs[check_vars]
    bits = (llrs < 0).astype(np.uint8)
    for it in range(1, max_iters + 1):
        th = np.tanh(np.clip(v2c, -LLR_MAX, LLR_MAX) / 2.0)
        left = np.ones_like(th)
        right = np.ones_like(th)
        np.cumprod(th[:, :-1], axis=1, out=left[:, 1:])
        np.cumprod(th[:, :0:-1], axis=1, out=right[:, -2::-1])
        c2v = 2.0 * np.arctanh(left * right)
        incoming = c2v.ravel()[var_edges]
        total = llrs + incoming.sum(axis=1)
        v2c.ravel()[var_edges.ravel()] = (total[:, None] - incoming).ravel()
        bits = (total < 0).astype(np.uint8)
        unsatisfied = (bits[check_vars].sum(axis=1) % 2).reshape(-1, m).any(axis=1)
        if unsatisfied.all():
            continue
        # Freeze the blocks that converged, then compact the rest.
        done = ~unsatisfied
        out.bits[active[done]] = bits.reshape(-1, n)[done]
        out.converged[active[done]] = True
        out.iterations[active[done]] = it
        active = active[unsatisfied]
        if len(active) == 0:
            return
        bits = bits.reshape(-1, n)[unsatisfied].ravel()
        llrs = llrs.reshape(-1, n)[unsatisfied].ravel()
        v2c = v2c.reshape(-1, m * ROW_WEIGHT)[unsatisfied].reshape(-1, ROW_WEIGHT)
        check_vars = all_check_vars[: len(active) * m]
        var_edges = all_var_edges[: len(active) * n]
    out.bits[active] = bits.reshape(-1, n)


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
