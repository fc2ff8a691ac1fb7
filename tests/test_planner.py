import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from littlebit import planner
from littlebit.errors import InfeasibleError

LLAMA2_7B = """
layer attn_q 4096 4096 attn_q 32
layer attn_k 4096 4096 attn_k 32
layer attn_v 4096 4096 attn_v 32
layer attn_o 4096 4096 attn_o 32
layer mlp_gate 11008 4096 mlp 32
layer mlp_up 11008 4096 mlp 32
layer mlp_down 4096 11008 mlp 32
d_model 4096
vocab 32000
embed_params 262144000
misc_params 266240
"""


class TestRankFormulas:
    def test_worked_example_square(self):
        assert planner.rank_for_bpw(4096, 4096, 0.55, residual=True) == 546
        b = planner.bpw_for_rank(4096, 4096, 546, residual=True)
        assert abs(b - 0.5498) < 1e-4

    def test_worked_example_rect(self):
        assert planner.rank_for_bpw(4096, 11008, 0.1, residual=True) == 133
        b = planner.bpw_for_rank(4096, 11008, 133, residual=True)
        assert abs(b - 0.0999) < 1e-4

    def test_scales_only_floor(self):
        # numerator <= 0 exactly when b*d_out*d_in <= 32*(d_out+d_in)
        floor = 32 * 8192 / 4096 ** 2
        with pytest.raises(InfeasibleError):
            planner.rank_for_bpw(4096, 4096, floor, residual=True)
        assert planner.rank_for_bpw(4096, 4096, floor * 1.05, residual=True) >= 1

    def test_non_finite_target_rejected(self):
        for b in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                planner.rank_for_bpw(4096, 4096, b, residual=True)

    def test_low_target_feasible_above_floor(self):
        # 0.03 sits above the 16-bit-scale floor of 0.015625 for 4096^2
        assert planner.rank_for_bpw(4096, 4096, 0.03, residual=True) == 15

    def test_rank_zero_closed_form(self):
        for d_out, d_in in [(128, 96), (4096, 11008)]:
            expect = 16 * (d_out + d_in) / (d_out * d_in)
            assert planner.bpw_for_rank(d_out, d_in, 0, residual=False) == expect
            assert planner.bpw_for_rank(d_out, d_in, 0, residual=True) == 2 * expect

    def test_monotonicity(self):
        bs = [planner.bpw_for_rank(512, 384, r, residual=True) for r in range(0, 50)]
        assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
        rs = [planner.rank_for_bpw(512, 384, b, residual=True)
              for b in np.linspace(0.2, 2.0, 40)]
        assert all(r2 >= r1 for r1, r2 in zip(rs, rs[1:]))

    def test_inversion_property_1000(self, rng):
        for _ in range(1000):
            d_out = int(rng.integers(64, 4096))
            d_in = int(rng.integers(64, 4096))
            residual = bool(rng.integers(0, 2))
            b = float(rng.uniform(0.05, 1.5))
            try:
                r = planner.rank_for_bpw(d_out, d_in, b, residual)
            except InfeasibleError:
                continue
            achieved = planner.bpw_for_rank(d_out, d_in, r, residual)
            step = (planner.bpw_for_rank(d_out, d_in, r + 1, residual)
                    - planner.bpw_for_rank(d_out, d_in, r, residual))
            assert abs(achieved - b) <= step + 1e-12

    @given(st.integers(1, 20_000), st.integers(1, 20_000),
           st.floats(0.0, 1.0), st.booleans())
    def test_rank_for_bpw_inverts_bpw_for_rank(self, d_out, d_in, frac, residual):
        r = max(1, round(frac * min(d_out, d_in)))
        b = planner.bpw_for_rank(d_out, d_in, r, residual)
        assert planner.rank_for_bpw(d_out, d_in, b, residual) == r

    def test_residual_toggling_relation(self):
        # recompute from the formulas rather than assuming a fixed ratio
        d_out, d_in, b = 2048, 2048, 0.4
        r_res = planner.rank_for_bpw(d_out, d_in, b, residual=True)
        r_no = planner.rank_for_bpw(d_out, d_in, b, residual=False)
        s = d_out + d_in
        expect_res = round((b * d_out * d_in - 32 * s) / (2 * s + 32))
        expect_no = round((b * d_out * d_in - 16 * s) / (s + 16))
        assert r_res == expect_res and r_no == expect_no
        assert r_no > r_res

    def test_ties_round_up(self):
        # construct an exact .5 fraction: numerator/denominator = 2.5
        # b*d*d - 16*2d = 2.5*(2d+16) with residual=False
        d = 64
        num = 2.5 * (2 * d + 16)
        b = (num + 16 * 2 * d) / (d * d)
        assert planner.rank_for_bpw(d, d, b, residual=False) == 3


class TestModelSpec:
    def test_parse(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        assert len(spec.layers) == 7
        assert spec.total_params() == 6_738_415_616
        assert spec.d_model == 4096 and spec.vocab == 32000

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            planner.parse_model_spec("layer a 4 4 bogus_kind 1")
        with pytest.raises(ValueError, match="unknown directive"):
            planner.parse_model_spec("foo 1")
        with pytest.raises(ValueError, match="no layers"):
            planner.parse_model_spec("# empty\nd_model 16")

    def test_comments_and_blanks(self):
        spec = planner.parse_model_spec(
            "\n# hi\nlayer a 8 8 other 1  # tail comment\n")
        assert spec.layers[0].name == "a"


class TestPlanModel:
    def test_multiplier_one_equal_ranks(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        plan = planner.plan_model(spec, 0.3, gqa_kv_multiplier=1.0)
        by_name = {lp.name: lp for lp in plan.layers}
        assert by_name["attn_k"].rank == by_name["attn_q"].rank

    def test_gqa_band_llama3(self):
        text = """
        layer attn_q 4096 4096 attn_q 32
        layer attn_k 1024 4096 attn_k 32
        layer attn_v 1024 4096 attn_v 32
        layer attn_o 4096 4096 attn_o 32
        layer mlp_gate 14336 4096 mlp 32
        layer mlp_up 14336 4096 mlp 32
        layer mlp_down 4096 14336 mlp 32
        d_model 4096
        """
        spec = planner.parse_model_spec(text)
        plan = planner.plan_model(spec, 0.1, gqa_kv_multiplier=4.0)
        assert 0.098 <= plan.weighted_bpw <= 0.119
        plan1 = planner.plan_model(spec, 0.1, gqa_kv_multiplier=1.0)
        plan8 = planner.plan_model(spec, 0.1, gqa_kv_multiplier=8.0)
        assert plan1.weighted_bpw < plan.weighted_bpw < plan8.weighted_bpw

    def test_gqa_rank_clamped_to_shape(self):
        spec = planner.load_model_spec(os.path.join(
            os.path.dirname(__file__), "..", "model_specs", "llama3_8b.txt"))
        plan = planner.plan_model(spec, 1.0)
        for lp in plan.layers:
            assert lp.rank <= min(lp.d_out, lp.d_in), lp
            assert lp.achieved_b == planner.bpw_for_rank(
                lp.d_out, lp.d_in, lp.rank, plan.residual)
        by_name = {lp.name: lp for lp in plan.layers}
        assert by_name["attn_k"].rank == by_name["attn_v"].rank == 1024

    def test_single_layer_square(self):
        spec = planner.parse_model_spec("layer only 4096 4096 other 1")
        plan = planner.plan_model(spec, 0.55)
        assert plan.layers[0].rank == 546
        assert abs(plan.weighted_bpw - 0.5498) < 1e-4

    def test_round_trip_drift(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        for target in (0.1, 0.3, 0.55, 0.8):
            plan = planner.plan_model(spec, target, gqa_kv_multiplier=1.0)
            for lp in plan.layers:
                r_back = planner.rank_for_bpw(lp.d_out, lp.d_in, lp.achieved_b,
                                              plan.residual)
                assert abs(r_back - lp.rank) <= 1

    def test_non_finite_gqa_multiplier_rejected(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        for m in (float("inf"), float("nan"), 0.5):
            with pytest.raises(ValueError, match="gqa_kv_multiplier"):
                planner.plan_model(spec, 0.3, gqa_kv_multiplier=m)

    def test_infeasible_layers_named(self):
        text = "layer tiny 32 32 other 1\nlayer big 4096 4096 other 1"
        spec = planner.parse_model_spec(text)
        with pytest.raises(InfeasibleError, match="tiny"):
            planner.plan_model(spec, 0.5)

    def test_achieved_b_consistency(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        plan = planner.plan_model(spec, 0.55)
        for lp in plan.layers:
            assert lp.achieved_b == pytest.approx(
                planner.bpw_for_rank(lp.d_out, lp.d_in, lp.rank, plan.residual),
                abs=1e-12)

    def test_csv_format(self):
        spec = planner.parse_model_spec("layer only 256 256 other 1")
        plan = planner.plan_model(spec, 0.5)
        csv = planner.plan_to_csv(plan)
        lines = csv.splitlines()
        assert lines[0] == "name,d_out,d_in,kind,rank,achieved_bpw"
        assert lines[1].startswith("only,256,256,other,")
        assert csv.endswith("\n")


class TestMemoryAndKv:
    def test_llama2_7b_table(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        plan_01 = planner.plan_model(spec, 0.1, gqa_kv_multiplier=1.0)
        plan_03 = planner.plan_model(spec, 0.3, gqa_kv_multiplier=1.0)
        gb_01 = planner.memory_footprint(spec, plan_01) / 1e9
        gb_03 = planner.memory_footprint(spec, plan_03) / 1e9
        assert abs(gb_01 - 0.63) / 0.63 < 0.10
        assert abs(gb_03 - 0.79) / 0.79 < 0.10
        fp16 = planner.fp16_footprint(spec) / 1e9
        assert abs(fp16 - 13.49) / 13.49 < 0.02

    def test_kv_reduction_values(self):
        assert abs(planner.kv_reduction(4096, 192) - 21.33) < 0.01
        assert abs(planner.kv_reduction(4096, 600) - 6.83) < 0.01
        assert planner.kv_reduction(512, 512) == 1.0
        with pytest.raises(ValueError):
            planner.kv_reduction(512, 0)

    def test_plan_kv_rank_total(self):
        spec = planner.parse_model_spec(LLAMA2_7B)
        plan = planner.plan_model(spec, 0.1, gqa_kv_multiplier=1.0)
        by_name = {lp.name: lp for lp in plan.layers}
        expect = by_name["attn_k"].rank + by_name["attn_v"].rank
        assert planner.plan_kv_rank_total(plan) == expect
