from .autoencoder import (anomaly_scores, autoencode, build_autoencoder, implausibility,
                          loss_ad, loss_ad_batch, near_depth_bound)
from .switching import (MODE_OP, MODE_VP, SelectorState, calibrate_beta, filter_update,
                        make_selector, min_flip_ticks, select_latent, trace_record)

__all__ = [
    "anomaly_scores", "autoencode", "build_autoencoder", "implausibility", "loss_ad",
    "loss_ad_batch", "near_depth_bound", "MODE_OP",
    "MODE_VP", "SelectorState", "calibrate_beta", "filter_update", "make_selector",
    "min_flip_ticks", "select_latent", "trace_record",
]
