"""evsynth: event-camera stream synthesis from high-FPS frame sequences.

A physics-based reference sensor simulator pairs with a trainable per-pixel
denoise-and-spike network so that noisy renders yield event streams matching
those produced from clean ones.
"""

from .core import (EventList, FrameSeq, LogDiffSeq, SpikeTrain, VoxelGrid,
                   dense_to_sparse, sparse_to_dense, voxelize)
from .luminance import LuminanceConfig, lin_log, log_diff_sequence, luma
from .refsim import RefSimConfig, naive_baseline, simulate
from .scenegen import NoiseModel, SceneSpec, add_render_noise, gen_scene
from .spiking import LifParams, SurrogateConfig
from .spikenet import SpikeNetConfig, SpikeNetParams, infer_stream, receptive_field

__version__ = "0.1.0"

__all__ = [
    "EventList", "FrameSeq", "LogDiffSeq", "SpikeTrain", "VoxelGrid",
    "dense_to_sparse", "sparse_to_dense", "voxelize",
    "LuminanceConfig", "lin_log", "log_diff_sequence", "luma",
    "RefSimConfig", "naive_baseline", "simulate",
    "NoiseModel", "SceneSpec", "add_render_noise", "gen_scene",
    "LifParams", "SurrogateConfig",
    "SpikeNetConfig", "SpikeNetParams", "infer_stream", "receptive_field",
    "__version__",
]
