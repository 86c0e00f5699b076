from .protocols import (DEFAULT_CONDITIONS, CleanPrefix, EpisodeResult, ExperimentSpec,
                        NoiseEvent, calibrate_beta_run, clean_prefix, read_beta_file, run_episode,
                        run_gamma_sweep, run_noise_robustness, run_trace,
                        switch_delay_text, write_beta_file)
from .verify import run_full_suite, run_loss_suite

__all__ = [
    "DEFAULT_CONDITIONS", "CleanPrefix", "EpisodeResult", "ExperimentSpec", "NoiseEvent",
    "calibrate_beta_run", "clean_prefix", "read_beta_file", "run_episode", "run_gamma_sweep",
    "run_noise_robustness", "run_trace", "switch_delay_text", "write_beta_file",
    "run_full_suite", "run_loss_suite",
]
