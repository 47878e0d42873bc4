from operator import attrgetter

import pytest

import gencomm.config as config_mod
from gencomm.config import ExperimentConfig, config_metadata, load_config
from gencomm.errors import ConfigurationError
from gencomm.jscc import CodecConfig

FULL_EXAMPLE = """
[experiment]
spec_version = 1
master_seed = 21
trials = 12
predictor = mlp
sweep_axis = cbr
snr_points = 0 5 10
cbr_points = 0.002, 0.0033
prompt = class:7
peak = 2.5

[channel]
kind = rayleigh
snr_db = 4

[codec]
k = 3
k_prime = 12
height = 16
width = 16
channels = 1
seed = 5
tikhonov_lambda = 0.5

[schedule]
steps = 500
beta_min = 2e-4
beta_max = 0.01
kind = scaled_linear

[sampler]
steps = 4
warm_start = 250
guidance = 1.5

[world]
prior_var = 2.0
prior_ar1_rho = 0.7

[sidechannel]
enabled = false
snr_db = 8
ldpc_n = 512
ldpc_seed = 1
bp_iters = 25
"""


def _write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_full_file_parses(tmp_path):
    cfg = load_config(_write(tmp_path, FULL_EXAMPLE))
    assert cfg.master_seed == 21
    assert cfg.trials == 12
    assert cfg.predictor == "mlp"
    assert cfg.sweep_axis == "cbr"
    assert cfg.snr_points == (0.0, 5.0, 10.0)
    assert cfg.cbr_points == (0.002, 0.0033)
    assert cfg.prompt == "class:7"
    assert cfg.peak == 2.5
    assert cfg.channel.kind == "rayleigh" and cfg.channel.snr_db == 4.0
    assert cfg.codec == CodecConfig(k_prime=12, k=3, height=16, width=16, channels=1)
    assert cfg.codec_seed == 5 and cfg.tikhonov_lambda == 0.5
    assert (cfg.schedule_steps, cfg.beta_min, cfg.beta_max) == (500, 2e-4, 0.01)
    assert cfg.schedule_kind == "scaled_linear"
    assert cfg.sampler_steps == 4 and cfg.warm_start == 250
    assert cfg.guidance == 1.5
    assert cfg.prior_var == 2.0 and cfg.prior_ar1_rho == 0.7
    assert not cfg.sidechannel_enabled
    assert cfg.sidechannel_snr_db == 8.0
    assert (cfg.ldpc_n, cfg.ldpc_seed, cfg.bp_iters) == (512, 1, 25)


def test_empty_sections_give_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "[experiment]\nmaster_seed = 3\n"))
    assert cfg == ExperimentConfig(master_seed=3)


def test_empty_file_gives_defaults(tmp_path):
    assert load_config(_write(tmp_path, "")) == ExperimentConfig()


def _documented_table():
    """(section, key) -> value of the `key = value` table in the module
    docstring, inline `;` comments dropped."""
    table, section = {}, None
    for line in config_mod.__doc__.splitlines():
        line = line.split(";")[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif section and "=" in line:
            key, _, value = line.partition("=")
            table[section, key.strip()] = value.strip()
    return table


def test_documented_table_is_the_schema_with_its_defaults():
    documented = _documented_table()
    assert set(documented) == set(config_mod._SCHEMA)
    defaults = ExperimentConfig()
    for (section, key), raw in documented.items():
        name, parse = config_mod._SCHEMA[section, key]
        want = (config_mod.SPEC_VERSION if name == "spec_version"
                else attrgetter(name)(defaults))
        assert parse(raw) == want, f"[{section}] {key} documented as {raw!r}"


def test_documented_size_limits_are_the_enforced_ones(tmp_path):
    documented, section = {}, None
    for line in config_mod.__doc__.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif "; at most " in line:
            key = line.partition("=")[0].strip()
            documented[section, key] = int(line.rpartition("; at most ")[2])
    assert documented == config_mod.SIZE_LIMITS
    for (section, key), limit in documented.items():  # the limit itself is allowed
        load_config(_write(tmp_path, f"[{section}]\n{key} = {limit}\n"))


def test_auto_values(tmp_path):
    cfg = load_config(_write(tmp_path, "[sampler]\nwarm_start = auto\n"
                                       "[sidechannel]\nsnr_db = auto\n"))
    assert cfg.warm_start is None
    assert cfg.sidechannel_snr_db is None


def test_empty_prompt_means_unconditional(tmp_path):
    cfg = load_config(_write(tmp_path, "[experiment]\nprompt =\n"))
    assert cfg.prompt is None


def test_multi_line_prompt_rejected(tmp_path):
    # A continuation line would split the results file's `# prompt =` header.
    with pytest.raises(ConfigurationError, match="prompt must be one line"):
        load_config(_write(tmp_path, "[experiment]\nprompt = a cheetah\n  on grass\n"))
    for text in ("a\nb", "a\rb"):
        with pytest.raises(ConfigurationError, match="prompt must be one line"):
            ExperimentConfig(prompt=text)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown config section"):
        load_config(_write(tmp_path, "[mystery]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(_write(tmp_path, "[channel]\nbandwidth = 5\n"))


def test_bad_scalar_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot parse"):
        load_config(_write(tmp_path, "[experiment]\ntrials = soon\n"))


def test_wrong_version_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="spec_version"):
        load_config(_write(tmp_path, "[experiment]\nspec_version = 99\n"))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_warm_start_below_steps_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="warm_start"):
        load_config(_write(tmp_path, "[sampler]\nsteps = 5\nwarm_start = 3\n"))


def test_validation_in_dataclass():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(predictor="transformer")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(sweep_axis="snr", snr_points=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(prior_ar1_rho=1.0)


def test_metadata_records_conventions():
    meta = config_metadata(ExperimentConfig())
    assert meta["spec_version"] == 1
    assert "sigma2" in meta["snr_convention"]
    assert "k_o excluded" in meta["cbr_formula"]
    assert meta["csi"] == "perfect at receiver"
    assert "0xEDB88320" in meta["crc"]
    assert "mlp_checkpoint" not in meta  # named only when set
