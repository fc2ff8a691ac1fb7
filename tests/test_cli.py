import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from littlebit import bitpack, cli, dualsvid, layer, tensor
from conftest import fixture_path

MODEL_SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "model_specs")


def run(args):
    return cli.main(args)


@pytest.fixture
def teacher_files(rng, tmp_path):
    w = rng.standard_normal((96, 80))
    ref = tmp_path / "w.lbm"
    tensor.save_matrix(w, ref)
    lbq = tmp_path / "w.lbq"
    assert run(["quantize", "--in", str(ref), "--rank", "6",
                "--out", str(lbq)]) == 0
    return w, ref, lbq


class TestPlan:
    def test_single_layer_paper_rank(self, tmp_path):
        spec = tmp_path / "one.txt"
        spec.write_text("layer only 4096 4096 other 1\n")
        out = tmp_path / "plan.csv"
        assert run(["plan", "--model-spec", str(spec), "--bpw", "0.55",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[4] == "546"

    def test_infeasible_exit_2(self, tmp_path):
        spec = tmp_path / "one.txt"
        spec.write_text("layer only 4096 4096 other 1\n")
        out = tmp_path / "plan.csv"
        assert run(["plan", "--model-spec", str(spec), "--bpw", "0.01",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_targets_exit_2_no_output(self, tmp_path, capsys):
        spec = tmp_path / "one.txt"
        spec.write_text("layer only 4096 4096 attn_k 1\n")
        out = tmp_path / "plan.csv"
        for target in (["--bpw", "inf"], ["--bpw", "nan"],
                       ["--bpw", "0.55", "--gqa-kv", "inf"],
                       ["--bpw", "0.55", "--gqa-kv", "nan"]):
            assert run(["plan", "--model-spec", str(spec), *target,
                        "--out", str(out)]) == 2
            assert not out.exists()
            assert "finite" in capsys.readouterr().err

    def test_llama2_footprint_printed(self, tmp_path, capsys):
        spec = os.path.join(MODEL_SPEC_DIR, "llama2_7b.txt")
        out = tmp_path / "plan.csv"
        assert run(["plan", "--model-spec", spec, "--bpw", "0.1",
                    "--gqa-kv", "1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        gb = float(text.split("(")[1].split(" GB")[0])
        assert abs(gb - 0.63) / 0.63 < 0.10
        assert "kv cache reduction" in text


class TestQuantize:
    def test_exact_recovery_report(self, rng, tmp_path):
        # dyadic scales keep every entry exact under float32 file storage
        h = rng.integers(1, 16, 24) / 8.0
        g = rng.integers(1, 16, 18) / 8.0
        s = rng.choice([-1.0, 1.0], 24)
        t = rng.choice([-1.0, 1.0], 18)
        w = 2.0 * np.outer(h * s, g * t)
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(w, ref)
        out = tmp_path / "w.lbq"
        rep = tmp_path / "rep.csv"
        assert run(["quantize", "--in", str(ref), "--rank", "1", "--no-residual",
                    "--out", str(out), "--report", str(rep)]) == 0
        header, row = rep.read_text().splitlines()
        rel_err = float(row.split(",")[header.split(",").index("rel_err_primary")])
        assert rel_err < 1e-9

    def test_bpw_within_one_rank_step(self, rng, tmp_path):
        w = rng.standard_normal((512, 512))
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(w, ref)
        out = tmp_path / "w.lbq"
        assert run(["quantize", "--in", str(ref), "--bpw", "0.3",
                    "--out", str(out)]) == 0
        lay = layer.load_lbq(out)
        achieved = layer.measured_bpw(lay, 16)
        from littlebit import planner
        step = (planner.bpw_for_rank(512, 512, lay.primary.rank + 1, True)
                - planner.bpw_for_rank(512, 512, lay.primary.rank, True))
        assert abs(achieved - 0.3) <= step

    def test_uses_randomized_svd(self, rng, tmp_path):
        w = rng.standard_normal((96, 80))
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(w, ref)
        out = tmp_path / "w.lbq"
        rep = tmp_path / "rep.csv"
        assert run(["quantize", "--in", str(ref), "--rank", "6",
                    "--out", str(out), "--report", str(rep)]) == 0
        header, row = rep.read_text().splitlines()
        total = float(row.split(",")[header.split(",").index("rel_err_total")])
        stored = tensor.load_matrix(ref)
        _, randomized = dualsvid.quantize(stored, 6, r_residual=6, svd="randomized")
        _, exact = dualsvid.quantize(stored, 6, r_residual=6, svd="exact")
        assert total == float(f"{randomized.rel_err_total!r}")
        assert total != exact.rel_err_total

    def test_non_finite_bpw_exit_2_no_output(self, rng, tmp_path, capsys):
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(rng.standard_normal((16, 12)), ref)
        out = tmp_path / "w.lbq"
        for bpw in ("inf", "nan"):
            assert run(["quantize", "--in", str(ref), "--bpw", bpw,
                        "--out", str(out)]) == 2
            assert not out.exists()
            assert "finite" in capsys.readouterr().err

    def test_zero_dimension_input_exit_2_no_output(self, tmp_path, capsys):
        ref = tmp_path / "w.lbm"
        out = tmp_path / "w.lbq"
        for rows, cols in ((0, 5), (5, 0), (0, 0)):
            ref.write_bytes(tensor.LBM1_MAGIC + struct.pack("<II", rows, cols))
            assert run(["quantize", "--in", str(ref), "--bpw", "0.5",
                        "--out", str(out)]) == 2
            assert not out.exists()
            assert "dimensions" in capsys.readouterr().err

    def test_fifo_input_exit_2_no_output(self, tmp_path, capsys):
        # the size check needs a regular file; the FIFO already holds a
        # whole LBM1 file, written through a read-write descriptor so
        # that opening it to read does not block
        fifo = tmp_path / "w.fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDWR)
        try:
            os.write(fd, struct.pack("<4sII", b"LBM1", 2, 2) + bytes(16))
            out = tmp_path / "w.lbq"
            assert run(["quantize", "--in", str(fifo), "--rank", "1",
                        "--out", str(out)]) == 2
        finally:
            os.close(fd)
        assert "not a regular file" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["quantize", "--in", str(tmp_path / "none.lbm"),
                    "--rank", "2", "--out", str(tmp_path / "x.lbq")]) == 2
        assert not (tmp_path / "x.lbq").exists()

    def test_fp16_scales_flag(self, rng, tmp_path):
        w = rng.standard_normal((32, 32))
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(w, ref)
        out = tmp_path / "w.lbq"
        assert run(["quantize", "--in", str(ref), "--rank", "3",
                    "--fp16-scales", "--out", str(out)]) == 0
        lay = layer.load_lbq(out)
        assert np.array_equal(lay.primary.h,
                              lay.primary.h.astype(np.float16).astype(np.float64))

    def test_fp16_scale_overflow_exit_2_no_output(self, rng, tmp_path, capsys):
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(rng.standard_normal((32, 32)) * 1e14, ref)
        out = tmp_path / "w.lbq"
        assert run(["quantize", "--in", str(ref), "--rank", "3",
                    "--fp16-scales", "--out", str(out)]) == 2
        assert "fp16" in capsys.readouterr().err
        assert not out.exists()

    def test_fp16_scale_underflow_exit_2_no_output(self, rng, tmp_path, capsys):
        # scales of a matrix this small round to 0 in fp16, so the stored
        # layer would output zeros
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(rng.standard_normal((32, 24)) * 1e-20, ref)
        out = tmp_path / "w.lbq"
        assert run(["quantize", "--in", str(ref), "--rank", "4",
                    "--fp16-scales", "--out", str(out)]) == 2
        assert "rounds to 0 in fp16" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_quantize_eval_consistency(self, teacher_files, tmp_path):
        _, ref, lbq = teacher_files
        rep = tmp_path / "rep.csv"
        assert run(["quantize", "--in", str(ref), "--rank", "6",
                    "--out", str(tmp_path / "again.lbq"), "--report", str(rep)]) == 0
        out = tmp_path / "eval.csv"
        assert run(["eval", "--lbq", str(tmp_path / "again.lbq"), "--ref", str(ref),
                    "--out", str(out)]) == 0
        header, row = rep.read_text().splitlines()
        stored = float(row.split(",")[header.split(",").index("rel_err_stored")])
        eval_rel = float(out.read_text().splitlines()[2].split(",")[1])
        assert abs(eval_rel - stored) <= 1e-12

    def test_deterministic(self, teacher_files, tmp_path):
        _, ref, lbq = teacher_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["eval", "--lbq", str(lbq), "--ref", str(ref),
                        "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shape_mismatch_exit_2(self, teacher_files, rng, tmp_path):
        _, _, lbq = teacher_files
        other = tmp_path / "other.lbm"
        tensor.save_matrix(rng.standard_normal((4, 4)), other)
        assert run(["eval", "--lbq", str(lbq), "--ref", str(other),
                    "--out", str(tmp_path / "e.csv")]) == 2

    def test_signalling_nan_exit_2_under_warnings_as_errors(self, teacher_files,
                                                           tmp_path):
        # a float32 signalling NaN (bits 0x7f800001) warns when widened
        snan = struct.pack("<I", 0x7F800001)
        _, ref, lbq = teacher_files
        # the primary h[0] of the 96 x 80 rank-6 file: after the 24-byte
        # header and one sign word per row of U and V
        h0 = 24 + (96 + 80) * 8
        bad_lbq = tmp_path / "snan.lbq"
        raw = bytearray(lbq.read_bytes())
        raw[h0:h0 + 4] = snan
        bad_lbq.write_bytes(bytes(raw))
        # the first entry of the reference, after the 12-byte LBM1 header
        bad_ref = tmp_path / "snan.lbm"
        raw = bytearray(ref.read_bytes())
        raw[12:16] = snan
        bad_ref.write_bytes(bytes(raw))
        out = tmp_path / "e.csv"
        for q, r in ((bad_lbq, ref), (lbq, bad_ref)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["eval", "--lbq", str(q), "--ref", str(r),
                            "--out", str(out)]) == 2
            assert not out.exists()

    def test_no_inputs_exit_2_no_output(self, teacher_files, tmp_path):
        _, ref, lbq = teacher_files
        out = tmp_path / "e.csv"
        for n in ("0", "-3"):
            assert run(["eval", "--lbq", str(lbq), "--ref", str(ref),
                        "--inputs", n, "--out", str(out)]) == 2
            assert not out.exists()

    def test_missing_compiler_exit_4_no_output(self, rng, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.setattr(bitpack, "CC", (str(tmp_path / "no-such-cc"),))
        monkeypatch.setattr(bitpack, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(bitpack, "_lib", None)
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(rng.standard_normal((24, 20)), ref)
        lbq = tmp_path / "w.lbq"
        # plan, quantize and train never need the kernel
        spec = os.path.join(MODEL_SPEC_DIR, "llama2_7b.txt")
        assert run(["plan", "--model-spec", spec, "--bpw", "0.3",
                    "--out", str(tmp_path / "plan.csv")]) == 0
        assert run(["quantize", "--in", str(ref), "--rank", "3",
                    "--out", str(lbq)]) == 0
        assert run(["train", "--lbq", str(lbq), "--ref", str(ref), "--steps", "2",
                    "--lr", "1e-3", "--seed", "0", "--out", str(tmp_path / "t.lbq"),
                    "--curve", str(tmp_path / "c.csv")]) == 0
        capsys.readouterr()
        out = tmp_path / "e.csv"
        assert run(["eval", "--lbq", str(lbq), "--ref", str(ref),
                    "--out", str(out)]) == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "no-such-cc" in captured.err
        assert "Traceback" not in captured.err

    def test_lbq_round_trip_needs_no_compiler(self, teacher_files, tmp_path,
                                              monkeypatch):
        _, _, lbq = teacher_files
        cache = tmp_path / "cache"
        monkeypatch.setattr(bitpack, "CC", (str(tmp_path / "no-such-cc"),))
        monkeypatch.setattr(bitpack, "CACHE_DIR", cache)
        monkeypatch.setattr(bitpack, "_lib", None)
        lay = layer.load_lbq(lbq)
        copy = tmp_path / "copy.lbq"
        layer.save_lbq(lay, copy)
        assert copy.read_bytes() == lbq.read_bytes()
        for p in lay.paths():
            for f in (p.u_sign, p.v_sign):
                assert bitpack.unpack(f).shape == f.shape
        assert not cache.exists()

    def test_residual_not_worse_than_primary_only(self, rng, tmp_path):
        w = rng.standard_normal((64, 64))
        ref = tmp_path / "w.lbm"
        tensor.save_matrix(w, ref)
        rels = {}
        for tag, extra in (("res", []), ("nores", ["--no-residual"])):
            lbq = tmp_path / f"{tag}.lbq"
            out = tmp_path / f"{tag}.csv"
            assert run(["quantize", "--in", str(ref), "--rank", "6",
                        *extra, "--out", str(lbq)]) == 0
            assert run(["eval", "--lbq", str(lbq), "--ref", str(ref),
                        "--out", str(out)]) == 0
            rels[tag] = float(out.read_text().splitlines()[2].split(",")[1])
        assert rels["res"] <= rels["nores"] + 1e-9


class TestTrain:
    def test_lr_zero_identity(self, teacher_files, rng, tmp_path):
        _, ref, lbq = teacher_files
        out = tmp_path / "t.lbq"
        curve = tmp_path / "c.csv"
        assert run(["train", "--lbq", str(lbq), "--ref", str(ref),
                    "--steps", "10", "--lr", "0", "--seed", "3",
                    "--out", str(out), "--curve", str(curve)]) == 0
        before = layer.load_lbq(lbq)
        after = layer.load_lbq(out)
        x = rng.standard_normal((4, 80))
        assert np.array_equal(layer.forward(before, x), layer.forward(after, x))

    def test_reproducible_curves(self, teacher_files, tmp_path):
        _, ref, lbq = teacher_files
        curves = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.lbq"
            curve = tmp_path / f"{tag}.csv"
            assert run(["train", "--lbq", str(lbq), "--ref", str(ref),
                        "--steps", "25", "--lr", "1e-3", "--seed", "11",
                        "--out", str(out), "--curve", str(curve)]) == 0
            curves.append(curve.read_bytes())
        assert curves[0] == curves[1]

    def test_curve_fields_parse_as_floats(self, teacher_files, tmp_path):
        _, ref, lbq = teacher_files
        curve = tmp_path / "c.csv"
        assert run(["train", "--lbq", str(lbq), "--ref", str(ref),
                    "--steps", "60", "--lr", "1e-3", "--seed", "0",
                    "--out", str(tmp_path / "t.lbq"), "--curve", str(curve)]) == 0
        header, *rows = curve.read_text().splitlines()
        assert header == "step,loss,lr" and len(rows) == 60
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 3
            for field in fields:
                float(field)

    def test_bad_lr_exit_2_no_outputs(self, teacher_files, tmp_path, capsys):
        _, ref, lbq = teacher_files
        out = tmp_path / "t.lbq"
        curve = tmp_path / "c.csv"
        for lr in ("-1", "nan", "inf"):
            assert run(["train", "--lbq", str(lbq), "--ref", str(ref),
                        "--steps", "5", "--lr", lr, "--seed", "0",
                        "--out", str(out), "--curve", str(curve)]) == 2
            assert not out.exists() and not curve.exists()
            assert "lr" in capsys.readouterr().err

    def test_divergence_exit_3_no_outputs(self, rng, tmp_path):
        big = np.full((16, 16), 1e200)
        ref = tmp_path / "big.lbm"
        # bypass save validation by writing raw float32 inf-free payload
        tensor.save_matrix(np.full((16, 16), 1e38), ref)
        lbq = tmp_path / "in.lbq"
        assert run(["quantize", "--in", str(ref), "--rank", "2",
                    "--out", str(lbq)]) == 0
        out = tmp_path / "out.lbq"
        curve = tmp_path / "c.csv"
        # huge lr pushes scales until the squared loss overflows
        rc = run(["train", "--lbq", str(lbq), "--ref", str(ref),
                  "--steps", "500", "--lr", "1e60", "--schedule", "constant",
                  "--seed", "0", "--out", str(out), "--curve", str(curve)])
        assert rc == 3
        assert not out.exists() and not curve.exists()

    def test_surrogate_pair_fixture(self):
        with open(fixture_path(
                "surrogate_compare_256x256_bpw0.3_nores_teacher42_seed0.csv")) as f:
            lines = f.read().splitlines()
        finals = {row.split(",")[0]: float(row.split(",")[2]) for row in lines[1:]}
        assert finals["smoothsign"] <= finals["ste"]


class TestPeakMemory:
    """tracemalloc peaks of whole commands on a layer with a residual
    path, as multiples of the dense float64 weight. Each dense temporary
    is freed after its last use, the teacher as soon as train has its
    calibration targets."""

    SHAPE = (768, 512)
    WEIGHT_BYTES = 768 * 512 * 8

    @staticmethod
    def traced_peak(argv):
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def ref(self, rng, tmp_path):
        p = tmp_path / "w.lbm"
        tensor.save_matrix(rng.standard_normal(self.SHAPE), p)
        return p

    def test_quantize(self, ref, tmp_path):
        peak = self.traced_peak(["quantize", "--in", str(ref), "--rank", "16",
                                 "--out", str(tmp_path / "w.lbq")])
        assert peak < 3.6 * self.WEIGHT_BYTES

    def test_train(self, ref, tmp_path):
        lbq = tmp_path / "w.lbq"
        assert run(["quantize", "--in", str(ref), "--rank", "16",
                    "--out", str(lbq)]) == 0
        peak = self.traced_peak(["train", "--lbq", str(lbq), "--ref", str(ref),
                                 "--steps", "3", "--lr", "1e-3", "--seed", "0",
                                 "--out", str(tmp_path / "t.lbq"),
                                 "--curve", str(tmp_path / "c.csv")])
        assert peak < 3.2 * self.WEIGHT_BYTES


class TestUsageAndAtomicity:
    def test_unknown_preset_exit_1(self, tmp_path):
        assert run(["bench", "--preset", "nope",
                    "--out", str(tmp_path / "b.csv")]) == 1

    def test_no_command_exit_1(self):
        assert run([]) == 1

    def test_unknown_sweep_exit_1(self, tmp_path):
        assert run(["sweep", "--experiment", "nope",
                    "--out", str(tmp_path / "s.csv")]) == 1

    def test_sweep_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["sweep", "--experiment", "theorem1",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_matches_fixture_seed(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["sweep", "--experiment", "theorem1", "--out", str(out)]) == 0
        with open(fixture_path("theorem1_64x64_r8r8_trials100_seed123.csv"), "rb") as f:
            assert out.read_bytes() == f.read()

    def test_bench_preset_shapes(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bench", "--preset", "llama7b-mlp", "--repeats", "3",
                    "--out", str(out)]) == 0
        text = out.read_text()
        for r in (3072, 1664, 896, 320):
            assert f",{r}," in text
        assert text.splitlines()[1].split(",")[:2] == ["4096", "11008"]
