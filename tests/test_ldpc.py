import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gencomm
from gencomm.errors import ConfigurationError, ContractError
from gencomm.ldpc import (DEFAULT_BP_ITERS, LLR_MAX, ROW_WEIGHT, _systematic_form,
                          ldpc_decode, ldpc_decode_batch, ldpc_encode, ldpc_make)
from gencomm.verify import check_ldpc_properties


@pytest.fixture(scope="module")
def code():
    return ldpc_make(256, seed=42)


class TestConstruction:
    def test_rate_half(self, code):
        assert code.rate == 0.5
        assert code.k == 128 and code.n == 256

    def test_exactly_regular(self, rng):
        check_ldpc_properties(rng, n=50)

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

    def test_decode_layout_matches_H(self, code):
        # Message row j*m + c is slot j of check c; var_edges lists a variable's rows.
        checks = np.tile(np.arange(code.m), ROW_WEIGHT)
        assert np.all(code.H[checks, code.slot_vars] == 1)
        assert np.array_equal(code.slot_vars[code.var_edges],
                              np.broadcast_to(np.arange(code.n), code.var_edges.shape))
        assert np.all(np.diff(checks[code.var_edges], axis=0) > 0)


def reference_systematic_form(H):
    """Column-by-column elimination with row swaps, the construction before
    the packed-row form; kept as the reference."""
    work = H.astype(np.uint8).copy()
    m, n = work.shape
    pivots = []
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
    return pivot_arr, free_arr, work[: len(pivots)][:, free_arr]


class TestSystematicForm:
    @pytest.mark.parametrize("n", [24, 256, 1024, 2048])
    @pytest.mark.parametrize("seed", [0, 1, 7070])
    def test_matches_reference_elimination(self, n, seed):
        code = ldpc_make(n, seed)
        pivots, free, parity_gen = reference_systematic_form(code.H)
        assert np.array_equal(code.pivot_positions, pivots)
        assert np.array_equal(code.info_positions, free)
        assert np.array_equal(code.packed_parity_gen, np.packbits(parity_gen, axis=1))
        assert code.packed_parity_gen.dtype == np.uint8

    @pytest.mark.parametrize("n", [24, 1024])
    def test_info_positions_are_the_sorted_complement(self, n):
        code = ldpc_make(n, seed=3)
        assert np.all(np.diff(code.info_positions) > 0)
        assert np.array_equal(np.sort(np.concatenate([code.pivot_positions,
                                                      code.info_positions])), np.arange(n))

    def test_make_does_not_import_numpy_ma(self):
        # np.setdiff1d imported numpy.ma on the first code built in a process.
        script = ("import sys; from gencomm.ldpc import ldpc_make; "
                  "before = 'numpy.ma' in sys.modules; ldpc_make(64, seed=1); "
                  "print(before, 'numpy.ma' in sys.modules)")
        src = str(Path(gencomm.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        before, after = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True).stdout.split()
        if before == "True":
            pytest.skip("numpy imports numpy.ma with numpy itself")
        assert after == "False"

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_deficient_and_odd_shapes(self, seed):
        # Random dense matrices, some with dependent rows and widths that are
        # not a multiple of 64: the same pivots and reduced rows.
        rng = np.random.default_rng(seed)
        m, n = 5 + 7 * seed, 70 + 13 * seed
        H = (rng.random((m, n)) < 0.3).astype(np.uint8)
        H[-1] = H[0] ^ H[1]
        for got, want in zip(_systematic_form(H), reference_systematic_form(H)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestEncode:
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

    @pytest.mark.parametrize("blocks", [1, 7])
    def test_batch_equals_per_row_calls(self, code, rng, blocks):
        info = rng.integers(0, 2, size=(blocks, code.k)).astype(np.uint8)
        words = ldpc_encode(code, info)
        assert words.shape == (blocks, code.n) and words.dtype == np.uint8
        assert np.array_equal(words, np.stack([ldpc_encode(code, row) for row in info]))

    def test_wrong_trailing_dimension_rejected(self, code):
        for shape in [(4, code.k + 1), (code.k, 3), (2, 3, code.k - 8), ()]:
            with pytest.raises(ContractError):
                ldpc_encode(code, np.zeros(shape, dtype=np.uint8))


class TestDecode:
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


def reference_decode(code, llrs, max_iters, dtype=np.float32):
    """Check-major flooding BP with the kernel's arithmetic in `dtype`: channel
    LLRs clipped to the dtype's range and halved, messages at half scale, v2c / 2
    clipped at LLR_MAX / 2 before tanh (a clip the float32 kernel leaves out, as
    it moves no float32 value) and the running product clamped to the largest
    value below 1 before arctanh. Each check row's six messages are a
    row of a dense (B, m, 6) array, products come from `np.cumprod` and the
    variable update scatters back into that array. Blocks run side by side and
    each stops at its own first zero syndrome. In float64 the clamp never binds
    (tanh(15)**5 < 1 - 2**-53), and this is the float64 decoder the float32
    kernel replaced."""
    rows, cols = np.nonzero(code.H)
    check_vars = cols[np.argsort(rows, kind="stable")].reshape(code.m, ROW_WEIGHT)
    var_edges = np.argsort(check_vars.ravel(), kind="stable").reshape(code.n, 3)
    big, top = np.finfo(dtype).max, np.nextafter(dtype(1), dtype(0))
    lam = np.clip(llrs, -big, big).astype(dtype) * dtype(0.5)
    bits = (llrs < 0).astype(np.uint8)
    converged = np.zeros(len(llrs), dtype=bool)
    iterations = np.full(len(llrs), max_iters)
    v2c = lam[:, check_vars]
    live = np.arange(len(llrs))
    for it in range(1, max_iters + 1):
        th = np.tanh(np.clip(v2c, -LLR_MAX / 2, LLR_MAX / 2))
        left, right = np.ones_like(th), np.ones_like(th)
        np.cumprod(th[..., :-1], axis=2, out=left[..., 1:])
        np.cumprod(th[..., :0:-1], axis=2, out=right[..., -2::-1])
        incoming = np.arctanh(np.clip(left * right, -top, top)).reshape(len(live), -1)[:, var_edges]
        total = lam[live] + incoming.sum(axis=2)
        v2c = np.empty_like(th).reshape(len(live), -1)
        v2c[:, var_edges.ravel()] = (total[..., None] - incoming).reshape(len(live), -1)
        v2c = v2c.reshape(th.shape)
        bits[live] = total < 0
        done = ~np.any(bits[live][:, check_vars].sum(axis=2) % 2, axis=1)
        converged[live[done]], iterations[live[done]] = True, it
        live, v2c = live[~done], v2c[~done]
        if len(live) == 0:
            break
    return bits, converged, iterations


@functools.lru_cache(maxsize=None)
def cached_code(n):
    return ldpc_make(n, seed=n + 5)


def noisy_llrs(code, rng, blocks, snr_db):
    """Clipped LLRs of random codewords sent by BPSK over AWGN at snr_db
    (Eb/N0 at rate 1/2): info bits first, then the normals."""
    words = ldpc_encode(code, rng.integers(0, 2, size=(blocks, code.k)))
    sigma2 = 10 ** (-snr_db / 10.0)
    y = 1.0 - 2.0 * words + np.sqrt(sigma2) * rng.standard_normal(words.shape)
    return np.clip(2.0 * y / sigma2, -LLR_MAX, LLR_MAX)


class TestBatchDecode:
    def test_matches_single_decodes_across_chunks(self, code):
        # 0-4 dB mixes blocks that converge after few iterations, after
        # many, and not at all; the batch spans at least three decode chunks.
        per_chunk = code.chunk_blocks
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
        per_chunk = code.chunk_blocks
        rng = np.random.default_rng(seed)
        blocks = int(rng.integers((chunks - 1) * per_chunk + 1, chunks * per_chunk + 1))
        llrs = noisy_llrs(code, rng, blocks, snr_db)
        res = ldpc_decode_batch(code, llrs, max_iters)
        bits, converged, iterations = reference_decode(code, llrs, max_iters)
        assert np.array_equal(res.bits, bits)
        assert np.array_equal(res.converged, converged)
        assert np.array_equal(res.iterations, iterations)

    @pytest.mark.parametrize("max_iters", [0, 1, 2, 50])
    def test_matches_reference_on_edge_llrs(self, max_iters):
        # LLRs the API accepts but the channel never makes, mixed into noisy
        # rows: exactly at LLR_MAX, signed zeros and float64 subnormals, which
        # turn into float32 zeros of their sign while the iteration-0 hard
        # decision still reads the float64 value. The second chunk adds more
        # subnormals, so densely that some variables hear only zero messages at
        # first.
        code = cached_code(1024)
        per_chunk = code.chunk_blocks
        rng = np.random.default_rng(29)
        words = ldpc_encode(code, rng.integers(0, 2, size=(per_chunk + 8, code.k)))
        llrs = np.clip(2.0 * (1.0 - 2.0 * words + 0.9 * rng.standard_normal(words.shape))
                       / 0.81, -LLR_MAX, LLR_MAX)
        edge = [LLR_MAX, -LLR_MAX, 0.0, -0.0, 1e-320, -1e-320]
        dense = edge + [1e-310, -1e-310, 5e-324, -5e-324]
        for rows, values, share in ((slice(0, per_chunk), edge, 0.05),
                                    (slice(per_chunk, None), dense, 0.4)):
            mask = rng.random(llrs[rows].shape) < share
            llrs[rows][mask] = rng.choice(values, size=mask.sum())
        res = ldpc_decode_batch(code, llrs, max_iters)
        bits, converged, iterations = reference_decode(code, llrs, max_iters)
        assert np.array_equal(res.bits, bits)
        assert np.array_equal(res.converged, converged)
        assert np.array_equal(res.iterations, iterations)

    @pytest.mark.parametrize("first_llr", [None, 5e-324])
    def test_non_contiguous_input(self, code, first_llr):
        # 5e-324, a float64 subnormal, turns into a float32 zero whose hard
        # decision is still bit 0; the input is read, never written.
        rng = np.random.default_rng(17)
        words = ldpc_encode(code, rng.integers(0, 2, size=(12, code.k)))
        llrs = np.clip(2.0 * (1.0 - 2.0 * words + 0.8 * rng.standard_normal(words.shape))
                       / 0.64, -LLR_MAX, LLR_MAX)
        if first_llr is not None:
            llrs[:, 0] = first_llr
        for view in (llrs[::2], np.asfortranarray(llrs)):
            before = view.copy()
            want = ldpc_decode_batch(code, np.ascontiguousarray(view), max_iters=15)
            got = ldpc_decode_batch(code, view, max_iters=15)
            assert np.array_equal(view, before)
            assert np.array_equal(got.bits, want.bits)
            assert np.array_equal(got.converged, want.converged)
            assert np.array_equal(got.iterations, want.iterations)
        assert len(set(want.iterations.tolist())) > 1

    def test_saturated_llrs_decode_without_warning(self):
        # float32 tanh is exactly ±1 long before LLR_MAX / 2, so these blocks'
        # running products reach ±1 and only the clamp keeps arctanh finite: a
        # RuntimeWarning is an error here. The hard decision is a codeword, so
        # every block stops at iteration 1 on it.
        code = cached_code(256)
        rng = np.random.default_rng(31)
        words = ldpc_encode(code, rng.integers(0, 2, size=(code.chunk_blocks + 3, code.k)))
        llrs = LLR_MAX * (1.0 - 2.0 * words)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ldpc_decode_batch(code, llrs)
        assert np.array_equal(res.bits, words)
        assert res.converged.all() and np.all(res.iterations == 1)

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
        for past in (np.nextafter(LLR_MAX, np.inf), -np.nextafter(LLR_MAX, np.inf)):
            llrs[1, 3] = past
            with pytest.raises(ContractError, match="LLRs must lie in"):
                ldpc_decode_batch(code, llrs)
        empty = ldpc_decode_batch(code, np.zeros((0, code.n)))
        assert empty.bits.shape == (0, code.n) and not empty.converged.size


class TestFloat64Agreement:
    @pytest.mark.parametrize("n, blocks", [(256, 1000), (1024, 300)])
    def test_agrees_with_float64_sum_product(self, n, blocks):
        # Fixed-seed blocks at 1-2 dB, in the waterfall, where a rounding
        # difference is most likely to change a decode: the float32 kernel
        # against the float64 decoder it replaced. Blocks both converge on
        # agree bit for bit. Measured: the outcome (converged or not) differs
        # in 3 of 3,000 n=256 blocks and 0 of 900 n=1024 blocks, the
        # iteration count in 3 and 3; the bounds are 0.4% and 1%.
        code = cached_code(n)
        rng = np.random.default_rng(n)
        outcomes = iterations = 0
        for snr_db in (1.0, 1.5, 2.0):
            llrs = noisy_llrs(code, rng, blocks, snr_db)
            res = ldpc_decode_batch(code, llrs)
            want = reference_decode(code, llrs, DEFAULT_BP_ITERS, np.float64)
            both = res.converged & want[1]
            assert np.array_equal(res.bits[both], want[0][both])
            outcomes += np.count_nonzero(res.converged != want[1])
            iterations += np.count_nonzero(res.iterations != want[2])
        assert outcomes <= 0.004 * 3 * blocks
        assert iterations <= 0.01 * 3 * blocks
