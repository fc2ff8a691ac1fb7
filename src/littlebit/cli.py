"""Command-line interface: plan, quantize, eval, train, bench, sweep.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, shape
mismatches, infeasible targets), 3 numeric failure (training divergence),
4 the GEMV kernel could not be built (no C compiler, a failed compile, or
an unusable cache directory; only ``eval`` and ``bench`` run the kernel).
All file outputs are written to a temp file and atomically renamed, so a
failed or interrupted command never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments, planner, qat
from .dualsvid import quantize
from .errors import (DivergenceError, FormatError, InfeasibleError,
                     KernelBuildError)
from .layer import (effective_weight, forward, load_lbq, measured_bpw,
                    save_lbq)
from .tensor import atomic_write, load_matrix, seeded_rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_KERNEL = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_text(path, text: str) -> None:
    atomic_write(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    spec = planner.load_model_spec(args.model_spec)
    plan = planner.plan_model(spec, args.bpw, residual=not args.no_residual,
                              gqa_kv_multiplier=args.gqa_kv)
    _write_text(args.out, planner.plan_to_csv(plan))
    footprint = planner.memory_footprint(spec, plan)
    print(f"plan written: {args.out}")
    print(f"weighted bpw: {plan.weighted_bpw:.6f}")
    print(f"footprint bytes: {footprint:.0f} ({footprint / 1e9:.3f} GB)")
    kv_total = planner.plan_kv_rank_total(plan)
    if spec.d_model > 0 and kv_total > 0:
        red = planner.kv_reduction(spec.d_model, kv_total)
        print(f"kv cache reduction: {red:.2f}x (latent width {kv_total} "
              f"vs d_model {spec.d_model})")
    return EXIT_OK


def cmd_quantize(args) -> int:
    w = load_matrix(args.infile)
    d_out, d_in = w.shape
    residual = not args.no_residual
    if args.rank is not None:
        rank = args.rank
    else:
        rank = planner.rank_for_bpw(d_out, d_in, args.bpw, residual=residual)
    layer, report = quantize(w, rank, residual=residual,
                             r_residual=rank if residual else None,
                             svd="randomized")
    save_lbq(layer, args.out, fp16_scales=args.fp16_scales)
    bpw = measured_bpw(layer, scale_bits=16 if args.fp16_scales else 32)
    print(f"quantized {d_out}x{d_in} at rank {rank} "
          f"(residual={'yes' if residual else 'no'}): {args.out}")
    print(f"rel err primary: {report.rel_err_primary:.6g}  "
          f"total: {report.rel_err_total:.6g}  measured bpw: {bpw:.6g}")
    if args.report:
        # rel_err_stored measures the artifact as written (scales rounded
        # to their storage precision), which is what cmd_eval sees
        stored = load_lbq(args.out)
        err_stored = float(np.linalg.norm(w - effective_weight(stored)))
        rel_stored = err_stored / float(np.linalg.norm(w))
        r_res = layer.residual.rank if layer.residual is not None else 0
        header = ("d_out,d_in,rank_primary,rank_residual,frob_err_primary,"
                  "frob_err_total,rel_err_primary,rel_err_total,"
                  "rel_err_stored,measured_bpw")
        row = (f"{d_out},{d_in},{layer.primary.rank},{r_res},"
               f"{report.frob_err_primary!r},{report.frob_err_total!r},"
               f"{report.rel_err_primary!r},{report.rel_err_total!r},"
               f"{rel_stored!r},{bpw!r}")
        _write_text(args.report, header + "\n" + row + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.inputs < 1:
        raise ValueError(f"--inputs must be >= 1, got {args.inputs}")
    layer = load_lbq(args.lbq)
    w = load_matrix(args.ref)
    if w.shape != (layer.d_out, layer.d_in):
        raise ValueError(f"reference shape {w.shape} does not match layer "
                         f"({layer.d_out}, {layer.d_in})")
    w_hat = effective_weight(layer)
    frob = float(np.linalg.norm(w - w_hat))
    rel = frob / float(np.linalg.norm(w))
    rng = seeded_rng(args.seed)
    x = rng.standard_normal((args.inputs, layer.d_in))
    mse = float(np.mean((forward(layer, x) - x @ w.T) ** 2))
    rows = [("frob_err", frob), ("rel_err", rel), ("forward_mse", mse)]
    text = "metric,value\n" + "".join(f"{k},{v!r}\n" for k, v in rows)
    _write_text(args.out, text)
    print(f"eval written: {args.out}")
    print(f"frob err: {frob:.6g}  rel err: {rel:.6g}  forward mse: {mse:.6g}")
    return EXIT_OK


def cmd_train(args) -> int:
    layer0 = load_lbq(args.lbq)
    # the teacher has no local name, so that train can free it once it
    # has the calibration targets
    refined, curve = qat.train(
        layer0, load_matrix(args.ref),
        qat.TrainConfig(steps=args.steps, lr=args.lr, batch=args.batch,
                        seed=args.seed, schedule=args.schedule,
                        calib_batches=args.calib_batches),
        qat.SurrogateSpec(kind=args.surrogate, k=args.k))
    save_lbq(refined, args.out, fp16_scales=args.fp16_scales)
    _write_text(args.curve, qat.curve_to_csv(curve))
    ratio = curve[-1].loss / curve[0].loss if curve[0].loss else float("nan")
    print(f"trained {args.steps} steps ({args.surrogate}): {args.out}")
    print(f"loss {curve[0].loss:.6g} -> {curve[-1].loss:.6g} "
          f"(ratio {ratio:.4f}); curve: {args.curve}")
    return EXIT_OK


def cmd_bench(args) -> int:
    d_out, d_in, ranks = experiments.BENCH_PRESETS[args.preset]
    result = experiments.gemv_bench(d_out, d_in, ranks, repeats=args.repeats)
    _write_text(args.out, result.to_csv())
    print(f"bench written: {args.out}")
    for row in result.rows:
        print(f"  {row[2]:>16} rank {row[3]:>5}: {row[4] / 1e6:8.3f} ms "
              f"({row[6]:.2f}x vs dense)")
    return EXIT_OK


# --experiment choices; each sweep's own default seed applies without --seed
_SWEEPS = {"lemma1": experiments.error_vs_rank_sweep,
          "theorem1": experiments.two_stage_probe,
          "residual": experiments.residual_ablation}


def cmd_sweep(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    res = _SWEEPS[args.experiment](**seed)
    _write_text(args.out, res.to_csv())
    print(f"sweep '{args.experiment}' written: {args.out} "
          f"({len(res.rows)} rows, seed {res.seed})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="littlebit",
                description="Sub-1-bit weight compression toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="rank/BPW plan for a model spec")
    sp.add_argument("--model-spec", required=True)
    sp.add_argument("--bpw", type=float, required=True)
    sp.add_argument("--gqa-kv", type=float,
                    default=planner.DEFAULT_GQA_KV_MULTIPLIER,
                    help="rank multiplier for attn_k/attn_v layers")
    sp.add_argument("--no-residual", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_plan)

    sq = sub.add_parser("quantize", help="factorize an LBM1 matrix into an LBQ layer")
    sq.add_argument("--in", dest="infile", required=True)
    group = sq.add_mutually_exclusive_group(required=True)
    group.add_argument("--bpw", type=float)
    group.add_argument("--rank", type=int)
    sq.add_argument("--no-residual", action="store_true")
    sq.add_argument("--fp16-scales", action="store_true")
    sq.add_argument("--out", required=True)
    sq.add_argument("--report")
    sq.set_defaults(func=cmd_quantize)

    se = sub.add_parser("eval", help="reconstruction quality of an LBQ layer")
    se.add_argument("--lbq", required=True)
    se.add_argument("--ref", required=True)
    se.add_argument("--inputs", type=int, default=8)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--out", required=True)
    se.set_defaults(func=cmd_eval)

    st = sub.add_parser("train", help="refine an LBQ layer against a dense teacher")
    st.add_argument("--lbq", required=True)
    st.add_argument("--ref", required=True)
    st.add_argument("--steps", type=int, required=True)
    st.add_argument("--lr", type=float, required=True)
    st.add_argument("--surrogate", choices=qat.SURROGATE_KINDS,
                    default="smoothsign")
    st.add_argument("--k", type=float, default=100.0)
    st.add_argument("--seed", type=int, required=True)
    st.add_argument("--batch", type=int, default=32)
    st.add_argument("--calib-batches", type=int, default=2)
    st.add_argument("--schedule", choices=qat.SCHEDULES, default="cosine")
    st.add_argument("--fp16-scales", action="store_true")
    st.add_argument("--out", required=True)
    st.add_argument("--curve", required=True)
    st.set_defaults(func=cmd_train)

    sb = sub.add_parser("bench", help="packed vs dense GEMV microbenchmark")
    sb.add_argument("--preset", choices=sorted(experiments.BENCH_PRESETS),
                    required=True)
    sb.add_argument("--repeats", type=int, default=30)
    sb.add_argument("--out", required=True)
    sb.set_defaults(func=cmd_bench)

    sw = sub.add_parser("sweep", help="run a recorded experiment sweep")
    sw.add_argument("--experiment", choices=sorted(_SWEEPS), required=True)
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except KernelBuildError as e:
        print(f"kernel build failed: {e}", file=sys.stderr)
        return EXIT_KERNEL
    except (FormatError, InfeasibleError, FileNotFoundError, IsADirectoryError,
            PermissionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
