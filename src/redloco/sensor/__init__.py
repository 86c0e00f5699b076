from .camera import dump_text
from .render import edge_truncate_resize, march_rays, render_batch
from .noise import (GAUSSIAN_SIGMA_MAX, inject_gaussian, inject_occlusion,
                    inject_salt_pepper)

__all__ = [
    "dump_text", "edge_truncate_resize", "march_rays", "render_batch",
    "GAUSSIAN_SIGMA_MAX", "inject_gaussian", "inject_occlusion", "inject_salt_pepper",
]
