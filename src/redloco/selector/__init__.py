from .autoencoder import (NEAR_DEPTH, anomaly_scores, build_autoencoder, implausibility,
                          loss_ad_batch)
from .switching import (MODE_OP, MODE_VP, SelectorState, calibrate_beta, filter_step,
                        filter_update, make_selector, min_flip_ticks, trace_record)

__all__ = [
    "NEAR_DEPTH", "anomaly_scores", "build_autoencoder", "implausibility", "loss_ad_batch",
    "MODE_OP", "MODE_VP", "SelectorState", "calibrate_beta",
    "filter_step", "filter_update", "make_selector", "min_flip_ticks", "trace_record",
]
