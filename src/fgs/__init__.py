"""Feature-Gaussian scenes: splat rendering, progressive densification,
plane-feature sampling, and open-vocabulary voxel grids."""

from .core import (CameraView, FeatureGaussian, GaussianScene, RenderOutput,
                   Z_NEAR, backproject, covariance3d, project_point,
                   project_points, quat_normalize, quat_to_rotmat,
                   relative_transform)
from .errors import (EmptyInputError, FgsError, FormatError,
                     InsufficientPointsError, InvalidInputError,
                     NumericalDegeneracyError)
from .raster import alpha_at, project_gaussian, render, render_oracle
from .densify import (DensifyConfig, DensifyReport, base_init, densify_layer,
                      fps, fps_oracle, pooled_backprojection,
                      select_under_represented, selection_residual)
from .sampling import (DecodeHeads, Mlp, aggregate, bilinear_sample,
                       decode_update, gen_offsets, place_samples,
                       refine_scene, sample_features)
from .attention import (AsaMask, AttentionWeights, asa_forward, build_mask,
                        positional_encoding)
from .losses import (LossComponents, LossWeights, feat_loss, l1_depth,
                     photometric_temporal, silog, ssim, total_loss, warp_photo)
from .voxel import (GridSpec, IouResult, MapResult, TextBank, TextBankEntry,
                    VoxelGrid, average_precision, eval_map, eval_miou,
                    orthonormal_bank, query_points, retrieval_scores,
                    text_probs, voxelize, voxelize_oracle)
from .synth import (Primitive, RigSpec, SynthResult, SynthSpec, build_rig,
                    gen_scene, missing_wall_fixture, perturb_poses, room_spec)
from .pipeline import PipelineConfig, run_pipeline
from . import io

__version__ = "0.1.0"

__all__ = [
    "CameraView", "FeatureGaussian", "GaussianScene", "RenderOutput", "Z_NEAR",
    "backproject", "covariance3d", "project_point", "project_points",
    "quat_normalize", "quat_to_rotmat", "relative_transform",
    "FgsError", "InvalidInputError", "EmptyInputError",
    "InsufficientPointsError", "NumericalDegeneracyError", "FormatError",
    "alpha_at", "project_gaussian", "render", "render_oracle",
    "DensifyConfig", "DensifyReport", "base_init", "densify_layer", "fps",
    "fps_oracle", "pooled_backprojection", "select_under_represented",
    "selection_residual",
    "DecodeHeads", "Mlp", "aggregate", "bilinear_sample", "decode_update",
    "gen_offsets", "place_samples", "refine_scene", "sample_features",
    "AsaMask", "AttentionWeights", "asa_forward", "build_mask",
    "positional_encoding",
    "LossComponents", "LossWeights", "feat_loss", "l1_depth",
    "photometric_temporal", "silog", "ssim", "total_loss", "warp_photo",
    "GridSpec", "IouResult", "MapResult", "TextBank", "TextBankEntry",
    "VoxelGrid", "average_precision", "eval_map", "eval_miou",
    "orthonormal_bank", "query_points", "retrieval_scores", "text_probs",
    "voxelize", "voxelize_oracle",
    "Primitive", "RigSpec", "SynthResult", "SynthSpec", "build_rig",
    "gen_scene", "missing_wall_fixture", "perturb_poses", "room_spec",
    "PipelineConfig", "run_pipeline",
    "io", "__version__",
]
