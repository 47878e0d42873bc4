"""The batched draw stage: every trial's PCG64 state computed at once equals
numpy's own `default_rng(SeedSequence(seed, spawn_key=(axis, trial)))`, and
the one-call-per-trial draws equal the per-trial construction they replace.
"""

from dataclasses import replace

import numpy as np
import pytest

import gencomm.pipeline as pipeline_mod
from gencomm.channel import DRAW_ROWS, ChannelConfig
from gencomm.config import ExperimentConfig
from gencomm.errors import ContractError, FrameError
from gencomm.jscc import CodecConfig
from gencomm.ldpc import LLR_MAX
from gencomm.pipeline import build_context, draw_batch, run_trial, sweep, trial_states
from gencomm.sidechannel import prompt_codeword, transmit_bits

SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 + 11, 2**100)
AXES = (0, 3, 2**32 - 1)
TRIAL_IDS = list(range(5_600)) + [2**31, 2**32 - 2, 2**32 - 1]


def numpy_state(seed, axis, trial):
    seq = np.random.SeedSequence(seed, spawn_key=(axis, trial))
    state = np.random.default_rng(seq).bit_generator.state["state"]
    return state["state"], state["inc"]


class TestTrialStates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_numpy_seeding(self, seed):
        # 6 seeds x 3 axes x 5,603 trials: about 1.0e5 triples.
        for axis in AXES:
            got = trial_states(seed, axis, TRIAL_IDS)
            assert got == [numpy_state(seed, axis, t) for t in TRIAL_IDS], (seed, axis)

    def test_many_word_seed_and_unordered_ids(self):
        ids = [9, 0, 4_000_000_000, 9]
        assert trial_states(2**200 + 3, 5, ids) == [numpy_state(2**200 + 3, 5, t)
                                                    for t in ids]
        assert trial_states(7, 0, []) == []

    @pytest.mark.parametrize("axis, ids", [(0, [0, 2**32]), (2**32, [0]), (0, [-1])])
    def test_ids_beyond_one_word_rejected(self, axis, ids):
        with pytest.raises(ContractError):
            trial_states(7, axis, ids)

    def test_disagreement_with_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(pipeline_mod, "_PCG64_MULT", pipeline_mod._PCG64_MULT + 2)
        with pytest.raises(ContractError, match="SeedSequence"):
            trial_states(7, 0, [0, 1])

    def test_run_trial_rejects_id_beyond_one_word(self):
        ctx = build_context(_cfg("awgn", 0))
        with pytest.raises(ContractError):
            run_trial(ctx, 2**32)


def reference_transmit_bits(bits, snr_db, rng):
    """BPSK over AWGN as one trial drew it before the batched draw stage."""
    if len(bits) % 2 != 0:
        bits = np.concatenate([bits, np.zeros(1, dtype=bits.dtype)])
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    x = symbols[0::2] + 1j * symbols[1::2]  # even bits on I, odd on Q; bit 0 -> +1
    sigma_dim = 10.0 ** (-snr_db / 20.0)
    y = x + sigma_dim * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
    dims = np.empty(2 * len(y))
    dims[0::2] = y.real
    dims[1::2] = y.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = 2.0 * dims / 10.0 ** (-snr_db / 10.0)
    llr = np.nan_to_num(llr, nan=0.0, posinf=LLR_MAX, neginf=-LLR_MAX)
    return np.clip(llr, -LLR_MAX, LLR_MAX)


def reference_draws(ctx, trial_id):
    """One trial's draws from its own generator, in the order a lone trial
    consumes them: z0, channel, prompt LLRs, warm-start noise."""
    seq = np.random.SeedSequence(ctx.cfg.master_seed, spawn_key=(ctx.axis_index, trial_id))
    rng = np.random.default_rng(seq)
    prior = rng.standard_normal(ctx.world.dim)
    chan = rng.standard_normal((DRAW_ROWS[ctx.cfg.channel.kind], ctx.codec_cfg.k))
    llrs = None
    if ctx.side_code is not None:
        coded = prompt_codeword(ctx.cfg.prompt, ctx.side_code)
        llrs = reference_transmit_bits(coded.ravel(), ctx.side_snr_db, rng)
        llrs = llrs.reshape(coded.shape)
    return prior, chan, llrs, rng.standard_normal(ctx.world.dim)


def _cfg(kind, ldpc_n):
    return ExperimentConfig(
        master_seed=2**64 + 5, trials=1, sweep_axis="none", predictor="analytic",
        channel=ChannelConfig(kind, 2.0), codec=CodecConfig(k_prime=8, k=3),
        warm_start=400, prompt="class:3", sidechannel_enabled=ldpc_n > 0,
        ldpc_n=ldpc_n or 256, ldpc_seed=11 if ldpc_n == 256 else 7070)


class TestDrawBatch:
    @pytest.mark.parametrize("size", [1, 3, 40])
    @pytest.mark.parametrize("ldpc_n", [0, 256, 1024], ids=["no_side", "n256", "n1024"])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_rows_equal_per_trial_draws(self, kind, ldpc_n, size):
        ctx = build_context(_cfg(kind, ldpc_n), axis_index=2)
        ids = [5 * i + 1 for i in range(size)]
        draws = draw_batch(ctx, ids)
        assert len(draws.prior) == len(draws.channel) == len(draws.warm) == size
        for r, trial_id in enumerate(ids):
            prior, chan, llrs, warm = reference_draws(ctx, trial_id)
            assert np.array_equal(draws.prior[r], prior)
            assert np.array_equal(draws.channel[r], chan)
            assert np.array_equal(draws.warm[r], warm)
            if llrs is None:
                assert draws.prompt_llrs is None
            else:
                assert np.array_equal(draws.prompt_llrs[r], llrs)

    def test_framing_error_fails_every_trial(self, monkeypatch):
        def too_large(text, code):
            raise FrameError("compressed prompt too large")

        monkeypatch.setattr(pipeline_mod.sidechannel, "prompt_codeword", too_large)
        cfg = _cfg("awgn", 256)
        with pytest.raises(FrameError):
            draw_batch(build_context(cfg), [0, 1, 2])
        rows, _ = sweep(replace(cfg, trials=3))
        assert [r.trial_id for r in rows] == [0, 1, 2]
        assert all(r.error.startswith("FrameError: compressed prompt too large")
                   for r in rows)


@pytest.mark.parametrize("length", [1, 2, 7, 256])
@pytest.mark.parametrize("snr_db", [-3.0, 2.0, float("inf")])
def test_transmit_bits_equals_two_draw_reference(length, snr_db):
    bits = np.random.default_rng(length).integers(0, 2, size=length).astype(np.uint8)
    got = transmit_bits(bits, snr_db, np.random.default_rng(9))
    want = reference_transmit_bits(bits, snr_db, np.random.default_rng(9))
    assert np.array_equal(got, want)
