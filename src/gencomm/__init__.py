"""Desk-scale simulator of warm-start diffusion refinement for latent-domain
wireless image transmission, with a coded text side-channel."""

from .channel import (ChannelConfig, mmse_equalize, normalize_power, pack_complex,
                      snr_to_sigma2, transmit, unpack_complex)
from .config import ExperimentConfig, load_config
from .denoiser import (AnalyticPredictor, ExactRecoveryOracle, GaussianWorld,
                       MlpDenoiser, TrainConfig, train)
from .jscc import CodecConfig, LinearCodec, cbr, make_linear_codec
from .metrics import frechet_gauss, mse, psnr
from .pipeline import (DEFAULT_WARM_START_TABLE, RunResult, build_context,
                       run_trial, sweep, warm_start_for_cbr, write_results)
from .sampler import (EpsilonPredictor, SamplerConfig, SampleTrace, cfg_combine,
                      predict_z0, residual_forward, sample, step_grid, warm_start)
from .schedule import NoiseSchedule, build_schedule, residual_weight, update_coeffs
from .sidechannel import SideChannelReport, send_prompt

__version__ = "0.1.0"
