from .camera import (STAGE_RANDOMIZED, STAGE_RAW, CameraModel, DepthImage, dump_text,
                     validate_camera)
from .render import edge_truncate_resize, march_rays, render, render_batch
from .noise import (GAUSSIAN_SIGMA_MAX, inject_gaussian, inject_occlusion,
                    inject_salt_pepper)

__all__ = [
    "STAGE_RANDOMIZED", "STAGE_RAW", "CameraModel", "DepthImage", "dump_text",
    "validate_camera", "edge_truncate_resize", "march_rays", "render",
    "render_batch", "GAUSSIAN_SIGMA_MAX", "inject_gaussian", "inject_occlusion",
    "inject_salt_pepper",
]
