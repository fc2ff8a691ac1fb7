"""Sub-1-bit weight compression: binarized low-rank factorization with
row/column/latent scale compensation, a byte-table GEMV kernel on the
packed signs, SVD-based initialization with residual compensation,
surrogate-gradient refinement, and bits-per-weight planning."""

from .bitpack import BinaryFactor, gemv_left, gemv_right, kernel_backend, pack, unpack
from .dualsvid import InitReport, init_path, quantize, split_factors
from .errors import (DivergenceError, FormatError, InfeasibleError,
                     KernelBuildError, LittleBitError)
from .layer import (LittleBitLayer, QuantPath, effective_weight, forward,
                    load_lbq, measured_bpw, param_bytes, save_lbq)
from .planner import (LayerSpec, ModelSpec, QuantPlan, bpw_for_rank,
                      kv_reduction, memory_footprint, plan_model, rank_for_bpw)
from .qat import SurrogateSpec, TrainConfig, surrogate_backward, train
from .tensor import (Rank1Result, SvdResult, gaussian_matrix, load_matrix,
                     rank1_nonneg, save_matrix, seeded_rng, truncated_svd)

__version__ = "0.1.0"

__all__ = [
    "BinaryFactor", "DivergenceError", "FormatError", "InfeasibleError",
    "InitReport", "KernelBuildError", "LayerSpec", "LittleBitError",
    "LittleBitLayer", "ModelSpec", "QuantPath", "QuantPlan", "Rank1Result",
    "SurrogateSpec", "SvdResult", "TrainConfig", "bpw_for_rank",
    "effective_weight", "forward", "gaussian_matrix", "gemv_left",
    "gemv_right", "init_path", "kernel_backend", "kv_reduction", "load_lbq",
    "load_matrix", "measured_bpw", "memory_footprint", "pack",
    "param_bytes", "plan_model", "quantize", "rank1_nonneg", "rank_for_bpw",
    "save_lbq", "save_matrix", "seeded_rng", "split_factors",
    "surrogate_backward", "train", "truncated_svd", "unpack",
]
