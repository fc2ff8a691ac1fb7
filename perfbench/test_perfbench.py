"""Tests for the benchmark's own helpers. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import tracing
import workloads
from littlebit import bitpack, cli, dualsvid


def test_percentile_reports_sample_count():
    assert workloads.percentile(list(range(1, 11)), 50) == (5.5, 10)
    assert workloads.percentile([4.0], 90) == (4.0, 1)
    assert workloads.percentile([1, 2, 3, 4, 5], 100) == (5.0, 5)
    with pytest.raises(ValueError):
        workloads.percentile([], 50)


def test_self_time_subtracts_covered_child_time():
    ms = 1_000_000
    spans = [
        ["root", 0, 100 * ms, -1, 0],
        ["child", 10 * ms, 30 * ms, 0, 0],
        ["grandchild", 15 * ms, 25 * ms, 1, 0],
        ["child", 40 * ms, 50 * ms, 0, 0],
        ["root", 200 * ms, 210 * ms, -1, 1],
    ]
    s = tracing.summarize(spans)
    assert s["root"]["calls"] == 2
    assert s["root"]["s"] == pytest.approx(0.110)
    assert s["root"]["self_s"] == pytest.approx(0.080)
    assert s["child"]["calls"] == 2
    assert s["child"]["self_s"] == pytest.approx(0.020)
    assert s["grandchild"]["self_s"] == pytest.approx(0.010)


def test_covered_time_is_the_union_clipped_to_the_span():
    assert tracing.covered_ns(0, 100, []) == 0
    assert tracing.covered_ns(0, 100, [(10, 30), (20, 50)]) == 40
    assert tracing.covered_ns(0, 100, [(-5, 10), (90, 120)]) == 20


def test_spans_are_installed_where_callers_resolve_names():
    original = dualsvid.truncated_svd
    rec = tracing.SpanRecorder()
    w = np.random.default_rng(0).standard_normal((24, 16))
    with tracing.installed(rec):
        assert cli.quantize is not original
        rec.run_id = 7
        cli.quantize(w, 3)
    assert dualsvid.truncated_svd is original and cli.quantize is dualsvid.quantize
    names = [s[tracing.NAME] for s in rec.spans]
    assert names[0] == "dualsvid.quantize" and rec.spans[0][tracing.PARENT] == -1
    assert names.count("tensor.truncated_svd") == 2
    init = names.index("dualsvid.init_path")
    svd = names.index("tensor.truncated_svd")
    assert rec.spans[init][tracing.PARENT] == 0
    assert rec.spans[svd][tracing.PARENT] == init
    assert {s[tracing.RUN] for s in rec.spans} == {7}
    assert all(s[tracing.END] >= s[tracing.START] for s in rec.spans)


def test_gemv_cost_from_array_sizes():
    # 3 x 70 factor: 2 words per row when packed; vectors of 3 and 70.
    vectors = (3 + 70) * 8
    assert workloads.gemv_cost(3, 70, "fallback") == (420, 3 * 70 * 8 + vectors)
    assert workloads.gemv_cost(3, 70, "compiled") == (420, 3 * 2 * 8 + vectors)
    with pytest.raises(ValueError):
        workloads.gemv_cost(3, 70, "gpu")


def _layer_arrays(lay):
    return [a for p in lay.paths()
            for a in (p.u_sign.words, p.v_sign.words, p.h, p.g, p.ell)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    w = workloads.synthetic_weight(3, 1, 20, 12)
    assert np.array_equal(w, workloads.synthetic_weight(3, 1, 20, 12))
    assert not np.array_equal(w, workloads.synthetic_weight(4, 1, 20, 12))
    assert not np.array_equal(w, workloads.synthetic_weight(3, 2, 20, 12))

    a = _layer_arrays(workloads.random_layer(3, 0, 20, 70, 5))
    b = _layer_arrays(workloads.random_layer(3, 0, 20, 70, 5))
    c = _layer_arrays(workloads.random_layer(4, 0, 20, 70, 5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))

    x = workloads.input_rows(3, 2, 4, 8)
    assert all(np.array_equal(p, q) for p, q in zip(x, workloads.input_rows(3, 2, 4, 8)))
    assert not np.array_equal(x[0], workloads.input_rows(4, 2, 4, 8)[0])


def test_random_factor_clears_pad_bits():
    rng = np.random.default_rng(0)
    f = workloads.random_factor(rng, 50, 70)
    assert not np.any(f.words[:, -1] >> np.uint64(6))
    assert set(np.unique(bitpack.unpack(f))) == {-1.0, 1.0}


def test_block_shapes_follow_the_model_spec():
    quarter = workloads.block_shapes(4)
    assert [s[0] for s in quarter] == list(workloads.BLOCK_ORDER)
    assert quarter[0][1:] == (1024, 1024, 124)
    assert quarter[4][1:] == (2752, 1024, 188)
    assert quarter[6][1:] == (1024, 2752, 188)
    assert workloads.block_shapes()[0][1:] == (4096, 4096, 546)
