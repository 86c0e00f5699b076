from .autoencoder import (anomaly_scores, build_autoencoder, implausibility, loss_ad_batch,
                          near_depth_bound)
from .switching import (MODE_OP, MODE_VP, SelectorState, calibrate_beta, filter_step,
                        filter_update, make_selector, min_flip_ticks, trace_record)

__all__ = [
    "anomaly_scores", "build_autoencoder", "implausibility", "loss_ad_batch",
    "near_depth_bound", "MODE_OP", "MODE_VP", "SelectorState", "calibrate_beta",
    "filter_step", "filter_update", "make_selector", "min_flip_ticks", "trace_record",
]
