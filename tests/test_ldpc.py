import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencomm.errors import ConfigurationError, ContractError, FormatError
from gencomm.ldpc import (CHUNK_EDGES, LLR_MAX, ROW_WEIGHT, _systematic_form, export_alist,
                          import_alist, ldpc_decode, ldpc_decode_batch, ldpc_encode,
                          ldpc_make)


@pytest.fixture(scope="module")
def code():
    return ldpc_make(256, seed=42)


class TestConstruction:
    def test_rate_half(self, code):
        assert code.rate == 0.5
        assert code.k == 128 and code.n == 256

    def test_exactly_regular(self, code):
        assert np.all(code.H.sum(axis=0) == 3)
        assert np.all(code.H.sum(axis=1) == 6)

    def test_deterministic_per_seed(self):
        assert np.array_equal(ldpc_make(128, seed=9).H, ldpc_make(128, seed=9).H)
        assert not np.array_equal(ldpc_make(128, seed=9).H, ldpc_make(128, seed=10).H)

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigurationError):
            ldpc_make(255, seed=1)

    def test_full_rank_over_gf2(self, code):
        # row-reduce a copy independently
        H = code.H.astype(np.uint8).copy()
        rank = 0
        for c in range(code.n):
            rows = np.nonzero(H[rank:, c])[0]
            if len(rows) == 0:
                continue
            pivot = rank + rows[0]
            H[[rank, pivot]] = H[[pivot, rank]]
            others = np.nonzero(H[:, c])[0]
            others = others[others != rank]
            H[others] ^= H[rank]
            rank += 1
            if rank == code.m:
                break
        assert rank == code.m


class TestEncode:
    def test_codewords_satisfy_every_check(self, code, rng):
        for _ in range(50):
            info = rng.integers(0, 2, size=code.k).astype(np.uint8)
            word = ldpc_encode(code, info)
            assert not np.any((code.H @ word.astype(np.int64)) % 2)

    def test_systematic_info_recovery(self, code, rng):
        info = rng.integers(0, 2, size=code.k).astype(np.uint8)
        word = ldpc_encode(code, info)
        assert np.array_equal(word[code.info_positions], info)

    def test_parity_bits_are_the_dense_gf2_product(self, code, rng):
        pivots, free, parity_gen = _systematic_form(code.H)
        for _ in range(20):
            info = rng.integers(0, 2, size=code.k).astype(np.uint8)
            word = ldpc_encode(code, info)
            assert np.array_equal(word[free], info)
            assert np.array_equal(word[pivots], (parity_gen.astype(np.int64) @ info) % 2)
            assert not np.any((code.H.astype(np.int64) @ word) % 2)

    def test_wrong_length_rejected(self, code):
        with pytest.raises(ContractError):
            ldpc_encode(code, np.zeros(code.k + 1, dtype=np.uint8))


class TestDecode:
    def test_noiseless_converges_in_one_iteration(self, code, rng):
        info = rng.integers(0, 2, size=code.k).astype(np.uint8)
        word = ldpc_encode(code, info)
        llrs = np.where(word == 0, 30.0, -30.0)
        res = ldpc_decode(code, llrs)
        assert res.converged and res.iterations == 1
        assert np.array_equal(res.bits, word)

    def test_all_zero_codeword_moderate_noise(self, code):
        # Eb/N0 = 3 dB on the all-zero codeword; success is overwhelmingly
        # likely at this operating point, so a fixed seed keeps it stable.
        rng = np.random.default_rng(7)
        sigma = 10 ** (-3.0 / 20.0)
        ok = 0
        for _ in range(20):
            y = 1.0 + sigma * rng.standard_normal(code.n)
            res = ldpc_decode(code, np.clip(2.0 * y / sigma**2, -30, 30))
            ok += res.converged and not res.bits.any()
        assert ok >= 18

    def test_nonconvergence_is_flag_not_error(self, code, rng):
        llrs = np.clip(rng.standard_normal(code.n), -30, 30)
        res = ldpc_decode(code, llrs, max_iters=5)
        assert res.iterations <= 5
        assert isinstance(res.converged, bool)

    def test_infinite_llrs_rejected(self, code):
        llrs = np.zeros(code.n)
        llrs[0] = np.inf
        with pytest.raises(ContractError):
            ldpc_decode(code, llrs)

    def test_ber_improves_with_snr(self, code):
        rng = np.random.default_rng(11)
        errors = []
        for ebn0 in (0.0, 4.0):
            sigma2 = 10 ** (-ebn0 / 10.0)
            errs = 0
            for _ in range(40):
                info = rng.integers(0, 2, size=code.k).astype(np.uint8)
                word = ldpc_encode(code, info)
                x = 1.0 - 2.0 * word
                y = x + np.sqrt(sigma2) * rng.standard_normal(code.n)
                res = ldpc_decode(code, np.clip(2.0 * y / sigma2, -30, 30))
                errs += int(np.count_nonzero(res.bits[code.info_positions] != info))
            errors.append(errs)
        assert errors[1] < errors[0]


def test_alist_roundtrip(tmp_path, code):
    path = tmp_path / "code.alist"
    export_alist(code, path)
    loaded = import_alist(path, seed=code.seed)
    assert np.array_equal(loaded.H, code.H)
    first = path.read_text().splitlines()
    assert first[0] == "256 128"
    assert first[1] == "3 6"


def test_alist_layout_is_one_based(tmp_path):
    code = ldpc_make(24, seed=3)
    path = tmp_path / "small.alist"
    export_alist(code, path)
    lines = path.read_text().splitlines()
    col0 = [int(v) for v in lines[4].split()]
    assert sorted(np.nonzero(code.H[:, 0])[0] + 1) == sorted(v for v in col0 if v)


def test_truncated_alist_raises_typed_error(tmp_path):
    code = ldpc_make(24, seed=3)
    path = tmp_path / "small.alist"
    export_alist(code, path)
    text = path.read_text()
    cut_path = tmp_path / "cut.alist"
    # every cut short of dropping only the final newline loses information
    for cut in range(len(text) - 1):
        cut_path.write_text(text[:cut])
        with pytest.raises(FormatError):
            import_alist(cut_path)
    cut_path.write_text(text[:-1])
    assert np.array_equal(import_alist(cut_path).H, code.H)


def test_alist_index_out_of_range_rejected(tmp_path):
    code = ldpc_make(24, seed=3)
    path = tmp_path / "small.alist"
    export_alist(code, path)
    lines = path.read_text().splitlines()
    lines[4] = "13 " + lines[4].split(" ", 1)[1]  # row 13 of 12
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_alist(path)


def reference_decode(code, llrs, max_iters):
    """Check-major flooding BP, one block at a time: each check row's six
    messages are a row of a dense (m, 6) array, products come from
    `np.cumprod` and the variable update scatters back into that array."""
    rows, cols = np.nonzero(code.H)
    check_vars = cols[np.argsort(rows, kind="stable")].reshape(code.m, ROW_WEIGHT)
    var_edges = np.argsort(check_vars.ravel(), kind="stable").reshape(code.n, 3)
    bits = np.empty(llrs.shape, dtype=np.uint8)
    converged = np.zeros(len(llrs), dtype=bool)
    iterations = np.full(len(llrs), max_iters)
    for b, lam in enumerate(llrs):
        v2c = lam[check_vars]
        bits[b] = lam < 0
        for it in range(1, max_iters + 1):
            th = np.tanh(np.clip(v2c, -LLR_MAX, LLR_MAX) / 2.0)
            left, right = np.ones_like(th), np.ones_like(th)
            np.cumprod(th[:, :-1], axis=1, out=left[:, 1:])
            np.cumprod(th[:, :0:-1], axis=1, out=right[:, -2::-1])
            incoming = (2.0 * np.arctanh(left * right)).ravel()[var_edges]
            total = lam + incoming.sum(axis=1)
            v2c.ravel()[var_edges.ravel()] = (total[:, None] - incoming).ravel()
            bits[b] = total < 0
            if not np.any(bits[b][check_vars].sum(axis=1) % 2):
                converged[b], iterations[b] = True, it
                break
    return bits, converged, iterations


@functools.lru_cache(maxsize=None)
def cached_code(n):
    return ldpc_make(n, seed=n + 5)


class TestBatchDecode:
    def test_matches_single_decodes_across_chunks(self, code):
        # 0-4 dB mixes blocks that converge after few iterations, after
        # many, and not at all; the batch spans at least three decode chunks.
        per_chunk = CHUNK_EDGES // (code.m * ROW_WEIGHT)
        blocks = 2 * per_chunk + 5
        rng = np.random.default_rng(21)
        info = rng.integers(0, 2, size=(blocks, code.k)).astype(np.uint8)
        words = np.stack([ldpc_encode(code, i) for i in info])
        sigma2 = 10 ** (-rng.uniform(0.0, 4.0, size=(blocks, 1)) / 10.0)
        y = 1.0 - 2.0 * words + np.sqrt(sigma2) * rng.standard_normal(words.shape)
        llrs = np.clip(2.0 * y / sigma2, -30, 30)
        assert -(-blocks // per_chunk) >= 3
        batch = ldpc_decode_batch(code, llrs, max_iters=20)
        for b, row in enumerate(llrs):
            one = ldpc_decode(code, row, max_iters=20)
            assert np.array_equal(batch.bits[b], one.bits)
            assert batch.converged[b] == one.converged
            assert batch.iterations[b] == one.iterations
        assert len(set(batch.iterations.tolist())) >= 4
        assert batch.converged.any() and not batch.converged.all()

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([24, 256, 1024]), snr_db=st.floats(-2.0, 6.0),
           max_iters=st.sampled_from([0, 1, 7, 50]), chunks=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_kernel(self, n, snr_db, max_iters, chunks, seed):
        code = cached_code(n)
        per_chunk = CHUNK_EDGES // (code.m * ROW_WEIGHT)
        rng = np.random.default_rng(seed)
        blocks = int(rng.integers((chunks - 1) * per_chunk + 1, chunks * per_chunk + 1))
        info = rng.integers(0, 2, size=(blocks, code.k)).astype(np.uint8)
        words = np.stack([ldpc_encode(code, i) for i in info])
        sigma2 = 10 ** (-snr_db / 10.0)
        y = 1.0 - 2.0 * words + np.sqrt(sigma2) * rng.standard_normal(words.shape)
        llrs = np.clip(2.0 * y / sigma2, -LLR_MAX, LLR_MAX)
        res = ldpc_decode_batch(code, llrs, max_iters)
        bits, converged, iterations = reference_decode(code, llrs, max_iters)
        assert np.array_equal(res.bits, bits)
        assert np.array_equal(res.converged, converged)
        assert np.array_equal(res.iterations, iterations)

    def test_zero_iterations_hard_decision(self, code):
        llrs = np.random.default_rng(2).standard_normal((3, code.n))
        res = ldpc_decode_batch(code, llrs, max_iters=0)
        assert np.array_equal(res.bits, (llrs < 0).astype(np.uint8))
        assert not res.converged.any() and not res.iterations.any()

    def test_contract(self, code):
        with pytest.raises(ContractError):
            ldpc_decode_batch(code, np.zeros(code.n))
        llrs = np.zeros((2, code.n))
        with pytest.raises(ContractError, match="max_iters"):
            ldpc_decode_batch(code, llrs, max_iters=-1)
        llrs[1, 3] = np.nan
        with pytest.raises(ContractError):
            ldpc_decode_batch(code, llrs)
