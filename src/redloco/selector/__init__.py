from .autoencoder import (AE_NET, NEAR_DEPTH, SelectorConfig, anomaly_scores, build_autoencoder,
                          implausibility, loss_ad_batch)
from .switching import (MODE_OP, MODE_VP, SelectorState, calibrate_beta, filter_step,
                        filter_update, make_selector, min_flip_ticks, runs_vision,
                        trace_record)

__all__ = [
    "AE_NET", "NEAR_DEPTH", "SelectorConfig", "anomaly_scores", "build_autoencoder",
    "implausibility", "loss_ad_batch",
    "MODE_OP", "MODE_VP", "SelectorState", "calibrate_beta",
    "filter_step", "filter_update", "make_selector", "min_flip_ticks", "runs_vision",
    "trace_record",
]
