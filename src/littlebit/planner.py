"""Bits-per-weight planning: target-BPW to latent rank and back, the
grouped-query-attention rank boost for key/value projections, and
model-level memory and KV-cache estimators.

Storage model: :func:`path_bits` counts one path, 1 bit per sign entry of
the two (d x r) factors plus 16 bits per scale entry (h, g, ell). It is the
one bit count; the planner and ``layer.measured_bpw`` derive from it. With
the residual path enabled both paths are counted, giving

    b = 2 path_bits(d_out, d_in, r) / (d_out d_in)

and without it the leading factor of two is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InfeasibleError

LAYER_KINDS = ("attn_q", "attn_k", "attn_v", "attn_o", "mlp", "other")
KV_KINDS = ("attn_k", "attn_v")
DEFAULT_GQA_KV_MULTIPLIER = 4.0
FP16_BYTES = 2


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def path_bits(d_out: int, d_in: int, r: int, scale_bits: int = 16) -> int:
    """Stored bits of one rank-*r* path: 1 per sign of the (d_out x r) and
    (d_in x r) factors plus *scale_bits* per entry of h, g and ell."""
    if scale_bits not in (16, 32):
        raise ValueError("scale_bits must be 16 or 32")
    return r * (d_out + d_in) + scale_bits * (d_out + d_in + r)


def bpw_for_rank(d_out: int, d_in: int, r: int, residual: bool = True) -> float:
    """Achieved average bits per weight at latent rank *r*."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    paths = 2 if residual else 1
    return paths * path_bits(d_out, d_in, r) / (d_out * d_in)


def rank_for_bpw(d_out: int, d_in: int, target_b: float,
                 residual: bool = True) -> int:
    """Latent rank achieving *target_b*, rounded to the nearest integer
    (ties up) and clamped to at least 1.

    Raises InfeasibleError when the target is at or below the scales-only
    floor for the shape, and ValueError when it is not finite.
    """
    if not math.isfinite(target_b):
        raise ValueError(f"target bits/weight must be finite, got {target_b}")
    paths = 2 if residual else 1
    scales_only = paths * path_bits(d_out, d_in, 0)
    numerator = target_b * d_out * d_in - scales_only
    if numerator <= 0:
        floor = scales_only / (d_out * d_in)
        raise InfeasibleError(
            f"target {target_b} bits/weight is below the scales-only floor "
            f"{floor:.6g} for shape ({d_out}, {d_in})")
    per_rank = paths * (path_bits(d_out, d_in, 1) - path_bits(d_out, d_in, 0))
    return max(1, _round_half_up(numerator / per_rank))


# ---------------------------------------------------------------------------
# Model description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    name: str
    d_out: int
    d_in: int
    kind: str
    count: int = 1

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if min(self.d_out, self.d_in) < 1 or self.count < 1:
            raise ValueError(f"bad layer spec for {self.name!r}")

    @property
    def params(self) -> int:
        return self.d_out * self.d_in


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[LayerSpec, ...]
    d_model: int = 0
    vocab: int = 0
    embed_params: int = 0       # embeddings + lm_head, kept at FP16
    misc_fp16_params: int = 0   # norms and other small FP16 tensors

    def quantized_params(self) -> int:
        return sum(l.params * l.count for l in self.layers)

    def total_params(self) -> int:
        return self.quantized_params() + self.embed_params + self.misc_fp16_params


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the line-oriented model config.

    Grammar: ``layer <name> <d_out> <d_in> <kind> <count>`` plus scalar
    keys ``d_model``, ``vocab``, ``embed_params``, ``misc_params``;
    ``#`` starts a comment.
    """
    layers: list[LayerSpec] = []
    scalars = {"d_model": 0, "vocab": 0, "embed_params": 0, "misc_params": 0}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "layer":
                if len(parts) != 6:
                    raise ValueError("expected: layer <name> <d_out> <d_in> <kind> <count>")
                layers.append(LayerSpec(name=parts[1], d_out=int(parts[2]),
                                        d_in=int(parts[3]), kind=parts[4],
                                        count=int(parts[5])))
            elif parts[0] in scalars:
                if len(parts) != 2:
                    raise ValueError(f"expected: {parts[0]} <int>")
                scalars[parts[0]] = int(parts[1])
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
        except ValueError as e:
            raise ValueError(f"model spec line {lineno}: {e}") from e
    if not layers:
        raise ValueError("model spec declares no layers")
    return ModelSpec(layers=tuple(layers), d_model=scalars["d_model"],
                     vocab=scalars["vocab"], embed_params=scalars["embed_params"],
                     misc_fp16_params=scalars["misc_params"])


def load_model_spec(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_model_spec(f.read())


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerPlan:
    name: str
    d_out: int
    d_in: int
    kind: str
    count: int
    rank: int
    achieved_b: float


@dataclass(frozen=True)
class QuantPlan:
    layers: tuple[LayerPlan, ...]
    residual: bool
    total_bytes: float = field(init=False, default=0.0)
    weighted_bpw: float = field(init=False, default=0.0)

    def __post_init__(self):
        bits = sum(lp.achieved_b * lp.d_out * lp.d_in * lp.count
                   for lp in self.layers)
        params = sum(lp.d_out * lp.d_in * lp.count for lp in self.layers)
        object.__setattr__(self, "total_bytes", bits / 8.0)
        object.__setattr__(self, "weighted_bpw", bits / params)


def plan_model(spec: ModelSpec, target_b: float, residual: bool = True,
               gqa_kv_multiplier: float = DEFAULT_GQA_KV_MULTIPLIER) -> QuantPlan:
    """Choose a latent rank per layer for *target_b*, boosting key/value
    projection ranks by *gqa_kv_multiplier* (rounded to nearest). Every
    rank is clamped to min(d_out, d_in), the largest one quantize accepts."""
    if not (math.isfinite(gqa_kv_multiplier) and gqa_kv_multiplier >= 1):
        raise ValueError(f"gqa_kv_multiplier must be finite and >= 1, "
                         f"got {gqa_kv_multiplier}")
    plans: list[LayerPlan] = []
    infeasible: list[str] = []
    for l in spec.layers:
        try:
            r = rank_for_bpw(l.d_out, l.d_in, target_b, residual)
        except InfeasibleError:
            infeasible.append(l.name)
            continue
        if l.kind in KV_KINDS:
            r = max(1, _round_half_up(r * gqa_kv_multiplier))
        r = min(r, l.d_out, l.d_in)
        plans.append(LayerPlan(name=l.name, d_out=l.d_out, d_in=l.d_in,
                               kind=l.kind, count=l.count, rank=r,
                               achieved_b=bpw_for_rank(l.d_out, l.d_in, r, residual)))
    if infeasible:
        raise InfeasibleError(
            f"target {target_b} bits/weight infeasible for layers: "
            + ", ".join(infeasible))
    return QuantPlan(layers=tuple(plans), residual=residual)


def memory_footprint(spec: ModelSpec, plan: QuantPlan) -> float:
    """Model bytes: quantized linears at their achieved BPW plus the FP16
    embedding/lm_head and miscellaneous parameters."""
    return plan.total_bytes + FP16_BYTES * (spec.embed_params + spec.misc_fp16_params)


def fp16_footprint(spec: ModelSpec) -> float:
    """Baseline bytes with every parameter stored at FP16."""
    return FP16_BYTES * spec.total_params()


def kv_reduction(d_model: int, r_kv_total: int) -> float:
    """KV-cache shrink factor: cached latent width vs. the full hidden
    width, d_model / r_kv_total."""
    if r_kv_total < 1:
        raise ValueError("r_kv_total must be >= 1")
    return d_model / r_kv_total


def plan_kv_rank_total(plan: QuantPlan) -> int:
    """Summed latent rank of one key and one value projection, i.e. the
    latent width cached per token position."""
    ranks = {}
    for lp in plan.layers:
        if lp.kind in KV_KINDS and lp.kind not in ranks:
            ranks[lp.kind] = lp.rank
    return sum(ranks.values())


def plan_to_csv(plan: QuantPlan) -> str:
    lines = ["name,d_out,d_in,kind,rank,achieved_bpw"]
    for lp in plan.layers:
        lines.append(f"{lp.name},{lp.d_out},{lp.d_in},{lp.kind},{lp.rank},"
                     f"{lp.achieved_b!r}")
    return "\n".join(lines) + "\n"
