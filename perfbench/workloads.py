"""The workloads of the block benchmark: inputs made from the seed, one
operation of the timed phase, and the output checks that run after it.

All three use one Llama2-7B block, the seven linears of
``model_specs/llama2_7b.txt`` in block order, at 0.55 bits per weight with
the residual path and ranks from ``planner.rank_for_bpw``. The program is
driven only through its public API and sees only the generated inputs.

* ``compress``: the block at quarter width. One operation is one linear:
  ``littlebit quantize`` from an LBM1 file to an LBQ file, then
  ``littlebit train`` for a fixed number of refine steps, both through
  ``cli.main`` in-process. SVD and QAT bound; no packed GEMV runs.
* ``decode``: the block at full width, built from seeded random packed
  signs and positive scales, since forward cost does not depend on which
  signs are set. One operation is one token, one input row through the
  seven linears. GEMV and memory bound.
* ``prefill``: the same layers; one operation is a chunk of 32 rows per
  ``layer.forward`` call, so the per-row loop and batching dominate.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from littlebit import bitpack, cli, layer, planner, tensor
from littlebit.errors import FormatError

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "model_specs" / "llama2_7b.txt"
BLOCK_ORDER = ("attn_q", "attn_k", "attn_v", "attn_o",
               "mlp_gate", "mlp_up", "mlp_down")
BPW = 0.55
COMPRESS_DIVISOR = 4
REFINE_STEPS = 5
REFINE_LR = "1e-3"
PREFILL_ROWS = 32
# Same tolerance as acceptance criterion 2 (staged forward vs x @ W_hat.T).
FORWARD_RTOL = 1e-9
# Decode checks every DECODE_CHECK_EVERY-th token; prefill checks
# PREFILL_CHECK_ROWS rows of every chunk.
DECODE_CHECK_EVERY = 8
PREFILL_CHECK_ROWS = 2
TOKEN_POOL = 64
CHUNK_POOL = 4
# Seed streams, so that each kind of input has its own generator.
_WEIGHTS, _LAYERS, _TOKENS, _ROWS = range(4)


# ---------------------------------------------------------------------------
# Pure helpers
# ---------------------------------------------------------------------------

def percentile(samples, p: float) -> tuple[float, int]:
    """The *p*-th percentile of *samples* (linear interpolation between
    order statistics) and the sample count it rests on."""
    if not samples:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p)), len(samples)


def gemv_cost(rows: int, cols: int, backend: str) -> tuple[int, int]:
    """Computed (flops, bytes) of one packed GEMV, either direction,
    against a rows x cols sign factor.

    One multiply-add per sign. Bytes are the factor's storage as the
    backend reads it (the float64 sign cache for ``fallback``, the packed
    words for ``compiled``) plus the float64 input and output vectors.
    Computed from array sizes, so cache reuse is ignored.
    """
    if backend == "fallback":
        factor = rows * cols * 8
    elif backend == "compiled":
        factor = rows * bitpack.words_per_row(cols) * 8
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return 2 * rows * cols, factor + (rows + cols) * 8


def block_shapes(divisor: int = 1) -> list[tuple[str, int, int, int]]:
    """(name, d_out, d_in, rank) of the block's linears in block order."""
    spec = planner.load_model_spec(SPEC_PATH)
    shapes = []
    for spec_layer in spec.layers:
        d_out, d_in = spec_layer.d_out // divisor, spec_layer.d_in // divisor
        rank = planner.rank_for_bpw(d_out, d_in, BPW, residual=True)
        shapes.append((spec_layer.name, d_out, d_in, rank))
    if tuple(s[0] for s in shapes) != BLOCK_ORDER:
        raise ValueError(f"{SPEC_PATH}: expected linears {BLOCK_ORDER}")
    return shapes


def synthetic_weight(seed: int, index: int, d_out: int, d_in: int) -> np.ndarray:
    """A decaying singular spectrum on top of a flat Gaussian bulk, so that
    truncating to the planned rank leaves a visible error."""
    rng = np.random.default_rng([seed, _WEIGHTS, index])
    k = min(d_out, d_in) // 4
    bulk = rng.standard_normal((d_out, d_in)) * (0.3 / math.sqrt(d_in))
    u = rng.standard_normal((d_out, k)) / math.sqrt(d_out)
    v = rng.standard_normal((d_in, k)) / math.sqrt(d_in)
    sigma = 8.0 * (1.0 + np.arange(k)) ** -0.6
    return bulk + (u * sigma) @ v.T


def random_factor(rng: np.random.Generator, rows: int, cols: int) -> bitpack.BinaryFactor:
    """Uniformly random packed signs with the pad bits cleared."""
    wpr = bitpack.words_per_row(cols)
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(rows, wpr),
                         dtype=np.uint64, endpoint=True)
    if cols % bitpack.WORD_BITS:
        words[:, -1] &= np.uint64((1 << (cols % bitpack.WORD_BITS)) - 1)
    return bitpack.BinaryFactor(rows, cols, words)


def random_layer(seed: int, index: int, d_out: int, d_in: int,
                 rank: int) -> layer.LittleBitLayer:
    """Primary and residual paths of random signs and positive scales,
    scaled so that a standard normal input gives outputs of order one."""
    rng = np.random.default_rng([seed, _LAYERS, index])

    def path():
        return layer.QuantPath(
            u_sign=random_factor(rng, d_out, rank),
            v_sign=random_factor(rng, d_in, rank),
            h=rng.uniform(0.5, 1.5, d_out),
            g=rng.uniform(0.5, 1.5, d_in) / math.sqrt(d_in),
            ell=rng.uniform(0.5, 1.5, rank) / math.sqrt(rank))

    return layer.LittleBitLayer(d_out=d_out, d_in=d_in,
                                primary=path(), residual=path())


def input_rows(seed: int, count: int, rows: int, cols: int) -> list[np.ndarray]:
    """*count* seeded standard normal input blocks of shape rows x cols."""
    rng = np.random.default_rng([seed, _TOKENS])
    return [rng.standard_normal((rows, cols)) for _ in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
# Each workload has: setup(), which may be repeated; op(i), one timed
# operation, whose result goes to keep(i, result) untimed; full(n),
# whether n operations make a complete measurement; pass_ms(first, op_ns),
# the time of one pass through the block over the operations numbered
# from *first*; check(), the set of failed operations, run after timing;
# figures(first, op_ns), the workload's own end-to-end figures; and
# layer_metrics(ops), counts computed for the traced operations.


class Compress:
    """Quantize and refine each linear of the quarter-width block via the
    CLI. One operation is one linear."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.shapes = block_shapes(COMPRESS_DIVISOR)
        self.inputs = [workdir / f"w{j}.lbm" for j in range(len(self.shapes))]
        self.ops: list[dict] = []

    def setup(self) -> None:
        for j, (_, d_out, d_in, _) in enumerate(self.shapes):
            tensor.save_matrix(synthetic_weight(self.seed, j, d_out, d_in),
                               self.inputs[j])

    def op(self, i: int) -> dict:
        j = i % len(self.shapes)
        out = {"linear": j, "lbq": self.workdir / f"op{i}.lbq",
               "refined": self.workdir / f"op{i}.refined.lbq",
               "curve": self.workdir / f"op{i}.curve.csv"}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter_ns()
            out["rc_quantize"] = cli.main([
                "quantize", "--in", str(self.inputs[j]), "--bpw", str(BPW),
                "--out", str(out["lbq"])])
            t1 = time.perf_counter_ns()
            out["rc_train"] = cli.main([
                "train", "--lbq", str(out["lbq"]), "--ref", str(self.inputs[j]),
                "--steps", str(REFINE_STEPS), "--lr", REFINE_LR,
                "--seed", str(self.seed), "--out", str(out["refined"]),
                "--curve", str(out["curve"])])
            t2 = time.perf_counter_ns()
        out["quantize_ns"], out["train_ns"] = t1 - t0, t2 - t1
        return out

    def keep(self, i: int, result: dict) -> None:
        result["bytes"] = {k: os.path.getsize(result[k])
                           for k in ("lbq", "refined") if result[k].exists()}
        self.ops.append(result)

    def full(self, n: int) -> bool:
        return n >= len(self.shapes)

    def _median_block(self, ops, values) -> float:
        """Sum over linears of each linear's median value."""
        groups: list[list[int]] = [[] for _ in self.shapes]
        for o, v in zip(ops, values):
            groups[o["linear"]].append(v)
        return sum(statistics.median(g) for g in groups)

    def pass_ms(self, first: int, op_ns) -> float:
        ops = self.ops[first:first + len(op_ns)]
        return self._median_block(ops, op_ns) / 1e6

    def check(self) -> set[int]:
        failed = set()
        refs = [tensor.load_matrix(p) for p in self.inputs]
        for i, o in enumerate(self.ops):
            o["ok"] = False
            if o["rc_quantize"] != 0 or o["rc_train"] != 0:
                failed.add(i)
                continue
            try:
                stored = layer.load_lbq(o["lbq"])
                layer.load_lbq(o["refined"])
                losses = _curve_losses(o["curve"])
            except (FormatError, OSError, ValueError):
                failed.add(i)
                continue
            w = refs[o["linear"]]
            w_norm = float(np.linalg.norm(w))
            err_total = float(np.linalg.norm(w - layer.effective_weight(stored)))
            err_primary = float(np.linalg.norm(
                w - layer.path_effective_weight(stored.primary)))
            o["rel_err"] = err_total / w_norm
            o["loss_ratio"] = losses[-1] / losses[0]
            if (err_total > err_primary or len(losses) != REFINE_STEPS
                    or not all(math.isfinite(x) for x in losses)):
                failed.add(i)
                continue
            o["ok"] = True
        return failed

    def figures(self, first: int, op_ns) -> dict:
        ops = self.ops[first:first + len(op_ns)]
        train_s = sum(o["train_ns"] for o in ops) / 1e9
        figs = {
            "quantize_s": (self._median_block(
                ops, [o["quantize_ns"] for o in ops]) / 1e9, "s"),
            "refine_step_ms": (train_s * 1e3 / (len(ops) * REFINE_STEPS), "ms"),
        }
        # Quality figures are deterministic per seed; take them from the
        # first pass, when every linear of it passed its checks.
        block = self.ops[:len(self.shapes)]
        if all(o.get("ok") for o in block):
            weights = [d_out * d_in for _, d_out, d_in, _ in self.shapes]
            figs["rel_err"] = (sum(n * o["rel_err"] for n, o in zip(weights, block))
                               / sum(weights), "ratio")
            figs["refine_loss_ratio"] = (statistics.fmean(
                o["loss_ratio"] for o in block), "ratio")
            figs["lbq_mb"] = (sum(o["bytes"]["lbq"] for o in block) / 1e6, "MB")
        return figs

    def layer_metrics(self, traced_ops: range) -> dict:
        ops = [self.ops[i] for i in traced_ops]
        written = sum(sum(o["bytes"].values()) for o in ops)
        return {
            "layer.lbq_bytes": (written, "B"),
            "cli.main.failed": (sum((o["rc_quantize"] != 0) + (o["rc_train"] != 0)
                                    for o in ops), "count"),
        }


def _curve_losses(path) -> list[float]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "step,loss,lr":
        raise ValueError(f"{path}: not a train curve")
    return [float(line.split(",")[1]) for line in lines[1:]]


class Forward:
    """The full-width block of random packed layers; one operation pushes
    ``rows`` input rows through the seven linears in block order."""

    def __init__(self, seed: int, rows: int):
        self.seed = seed
        self.rows = rows
        self.shapes = block_shapes()
        self.layers: list[layer.LittleBitLayer] = []
        self.pool: list[np.ndarray] = []
        self.records: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        self.warmup_rss_mb = 0.0
        self.check_rng = np.random.default_rng([seed, _ROWS])

    def setup(self) -> None:
        self.layers = []  # free the previous set-up's layers first
        self.layers = [random_layer(self.seed, j, d_out, d_in, r)
                       for j, (_, d_out, d_in, r) in enumerate(self.shapes)]
        count = TOKEN_POOL if self.rows == 1 else CHUNK_POOL
        self.pool = input_rows(self.seed, count, self.rows, self.shapes[0][2])
        # The first forward fills lazy per-factor state; users pay that
        # once per process, so it belongs to set-up. One row is enough.
        before = current_rss_mb()
        self.block_pass(self.pool[0][:1])
        self.warmup_rss_mb = current_rss_mb() - before

    def block_pass(self, x: np.ndarray):
        """Inputs and outputs of q, k, v, o, gate, up, down: q, k and v
        read the token, o reads v, gate and up read o, down reads
        gate * up."""
        ins, outs = [], []

        def run(j, inp):
            ins.append(inp)
            outs.append(layer.forward(self.layers[j], inp))
            return outs[-1]

        run(0, x)
        run(1, x)
        v = run(2, x)
        o = run(3, v)
        run(6, run(4, o) * run(5, o))
        return ins, outs

    def op(self, i: int):
        return self.block_pass(self.pool[i % len(self.pool)])

    def keep(self, i: int, result) -> None:
        ins, outs = result
        if self.rows == 1:
            if i % DECODE_CHECK_EVERY:
                return
            rows = np.arange(1)
        else:
            rows = np.sort(self.check_rng.choice(self.rows, PREFILL_CHECK_ROWS,
                                                 replace=False))
        for j, (x, y) in enumerate(zip(ins, outs)):
            self.records.append((i, j, x[rows].copy(), y[rows].copy()))

    def full(self, n: int) -> bool:
        return True

    def pass_ms(self, first: int, op_ns) -> float:
        return statistics.median(op_ns) / 1e6

    def check(self) -> set[int]:
        """Sampled outputs against x @ effective_weight(layer).T, one
        materialized layer at a time."""
        failed = set()
        for j, lay in enumerate(self.layers):
            w = layer.effective_weight(lay)
            for i, _, x, y in (r for r in self.records if r[1] == j):
                ref = x @ w.T
                rel = np.linalg.norm(y - ref) / np.linalg.norm(ref)
                if not rel < FORWARD_RTOL:
                    failed.add(i)
            del w
        return failed

    def figures(self, first: int, op_ns) -> dict:
        ms = [t / 1e6 for t in op_ns]
        total_s = sum(op_ns) / 1e9
        if self.rows == 1:
            p50, n = percentile(ms, 50)
            p90, _ = percentile(ms, 90)
            return {"decode_tok_per_s": (len(op_ns) / total_s, "tok/s"),
                    "decode_token_ms_p50": (p50, "ms"),
                    "decode_token_ms_p90": (p90, "ms"),
                    "decode_token_samples": (n, "count")}
        return {"prefill_tok_per_s": (len(op_ns) * self.rows / total_s, "tok/s"),
                "prefill_chunk_samples": (len(op_ns), "count")}

    def layer_metrics(self, traced_ops: range) -> dict:
        backend = bitpack.kernel_backend()
        flops = nbytes = 0
        for lay in self.layers:
            for p in lay.paths():
                for rows in (p.d_in, p.d_out):
                    f, b = gemv_cost(rows, p.rank, backend)
                    flops, nbytes = flops + f, nbytes + b
        packed = sum(layer.param_bytes(lay) for lay in self.layers)
        return {
            "bitpack.gemv.flops_per_token": (flops, "flop"),
            "bitpack.gemv.bytes_per_token": (nbytes, "B"),
            "layer.forward.warmup_rss_mb": (self.warmup_rss_mb, "MB"),
            "layer.packed_mb": (packed / 1e6, "MB"),
        }


def make(name: str, seed: int, workdir: Path):
    if name == "compress":
        return Compress(seed, workdir)
    if name == "decode":
        return Forward(seed, 1)
    if name == "prefill":
        return Forward(seed, PREFILL_ROWS)
    raise ValueError(f"unknown workload {name!r}")
