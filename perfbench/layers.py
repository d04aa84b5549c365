"""Per-layer metrics from traced units, and the kernel micro-benchmark.

Per traced unit, every `<layer>.<fn>_s` is self time (span duration minus
the spans it called), except `harness.*_s` and `training.dev_rouge_l_s`,
which are inclusive: they are stage and dev-eval shares of wall_s.  Times
are medians over the run's traced units; counts must repeat exactly from
one traced unit to the next, and a count that does not is a failed check.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from stagesum import kernels

INCLUSIVE = ["harness.run_pretrain", "harness.run_train", "harness.run_select_train",
             "harness.run_decode", "harness.run_eval", "harness.run_grid",
             "training.dev_rouge_l"]
SELF = ["autodiff.backward", "model.forward_teacher_forced", "model.mixed_logits",
        "model.encode", "model.decoder_stack", "model.decode_step",
        "training.train_stage", "training.mle_loss", "optim.adam_step",
        "kernels.scatter_copy_forward", "kernels.scatter_copy_backward",
        "kernels.adam_update", "kernels.lcs_length", "metrics.rouge_l",
        "metrics.rouge_report", "checkpoint.save", "checkpoint.load",
        "checkpoint.apply_scheme", "checkpoint.apply_partial",
        "selection.build_labels", "selection.selector_forward",
        "selection.calibrate_threshold", "tokenizer.encode_pair"]
CALLS = ["autodiff.backward", "model.encode", "model.decoder_stack",
         "model.decode_step", "search.greedy_decode", "search.beam_decode",
         "optim.adam_step", "kernels.scatter_copy_forward",
         "kernels.scatter_copy_backward", "kernels.adam_update",
         "kernels.lcs_length", "tokenizer.encode_pair"]
# Counts that must repeat exactly between traced units (and between runs).
EXACT = ["autodiff.tape_nodes", "model.decode_step_calls",
         "search.beam_steps_per_output_token", "kernels.lcs_cells",
         "optim.adam_step_calls", "model.encode_calls", "checkpoint.bytes_written"]


def _pct(values, q):
    """q-th percentile in ms (0 when there are no samples)."""
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def unit_metrics(tracer, wall):
    """Per-layer figures of one traced unit."""
    total, own = tracer.times()
    c = tracer.counts
    m = {f"{name}_s": total.get(name, 0.0) for name in INCLUSIVE}
    m.update({f"{name}_s": own.get(name, 0.0) for name in SELF})
    m.update({f"{name}_calls": tracer.calls(name) for name in CALLS})
    backward = tracer.calls("autodiff.backward")
    m["autodiff.tape_nodes"] = c.get("autodiff.tape_nodes", 0)
    m["autodiff.tape_nodes_per_backward"] = (
        m["autodiff.tape_nodes"] / backward if backward else 0.0)
    m["model.decode_step_p50_ms"] = _pct(tracer.durations("model.decode_step"), 50)
    for kind in ("greedy", "beam"):
        d = tracer.durations(f"search.{kind}_decode")
        m[f"search.{kind}_decode_p50_ms"] = _pct(d, 50)
        m[f"search.{kind}_decode_p90_ms"] = _pct(d, 90)
    tokens = c.get("search.beam_output_tokens_plus_one", 0)
    m["search.beam_steps_per_output_token"] = (
        c.get("search.beam_steps", 0) / tokens if tokens else 0.0)
    m["checkpoint.bytes_written"] = c.get("checkpoint.bytes_written", 0)
    m["checkpoint.store_copy_calls"] = tracer.calls("checkpoint.copy")
    m["kernels.lcs_cells"] = c.get("kernels.lcs_cells", 0)
    m["kernels.lcs_share_of_wall"] = own.get("kernels.lcs_length", 0.0) / wall
    m["traced_wall_s"] = wall
    return m


def _per_call(fn, repeats):
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def kernel_bench():
    """Median per-call time of each public kernel at fixed sizes, with its
    computed operation count and the bytes the algorithm must touch (inputs
    read once, outputs written once, float64/int64 at 8 bytes; NumPy
    temporaries are not counted)."""
    rng = np.random.default_rng(0)
    out = {}

    a = rng.integers(0, 50, 400).astype(np.int64)
    b = rng.integers(0, 50, 400).astype(np.int64)
    out["kernels.bench_lcs_400x400_ms"] = _per_call(lambda: kernels.lcs_length(a, b), 3)
    out["kernels.bench_lcs_400x400_ops"] = len(a) * len(b)           # DP cells
    # per cell: read prev[j], prev[j+1], cur[j]; write cur[j+1]
    out["kernels.bench_lcs_400x400_bytes"] = 32 * len(a) * len(b) + 8 * (len(a) + len(b))

    att = rng.random((16, 512))
    ids = rng.integers(-1, 8000, 512).astype(np.int64)
    valid = int((ids >= 0).sum())
    out["kernels.bench_scatter_16x512_ms"] = _per_call(
        lambda: kernels.scatter_copy_forward(att, ids, 8000), 25)
    out["kernels.bench_scatter_16x512_ops"] = 16 * valid               # adds
    out["kernels.bench_scatter_16x512_bytes"] = 8 * (att.size + ids.size + 16 * 8000)

    d_out = rng.random((16, 8000))
    out["kernels.bench_scatter_backward_16x8000_ms"] = _per_call(
        lambda: kernels.scatter_copy_backward(d_out, ids, 512), 25)
    out["kernels.bench_scatter_backward_16x8000_ops"] = 16 * valid     # gathers
    out["kernels.bench_scatter_backward_16x8000_bytes"] = 8 * (16 * valid + ids.size + 16 * 512)

    shape = (512, 512)
    param, grad = rng.standard_normal(shape), rng.standard_normal(shape)
    m, v = np.zeros(shape), np.zeros(shape)
    out["kernels.bench_adam_512x512_ms"] = _per_call(
        lambda: kernels.adam_update(param, grad, m, v, 1e-3, 0.9, 0.999, 1e-8, 1), 7)
    n = param.size
    out["kernels.bench_adam_512x512_ops"] = 12 * n                    # flops per element
    out["kernels.bench_adam_512x512_bytes"] = 8 * 7 * n               # read p,g,m,v; write p,m,v
    return out


def layer_metrics(run):
    """Per-layer metrics of a traced run, plus failures for its self-checks."""
    per_unit = [unit_metrics(tracer, wall) for wall, _, tracer in run.traced]
    metrics = {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
    for key in EXACT:
        seen = {u[key] for u in per_unit}
        if len(seen) > 1:
            run.fail(f"count {key} differs between traced units: {sorted(seen)}")
    for (_, expect, _), u in zip(run.traced, per_unit):
        if u["optim.adam_step_calls"] != expect["batches"]:
            run.fail(f"optim.adam_step_calls {u['optim.adam_step_calls']} != "
                     f"{expect['batches']} batches: a binding was missed")
        if not expect["batches"] and u["model.encode_calls"] != expect["encodes"]:
            run.fail(f"model.encode_calls {u['model.encode_calls']} != "
                     f"{expect['encodes']} summaries + selector passes")
    run.attempted += 2 * len(run.traced) + len(EXACT)
    plain_wall = statistics.median(w for w, _, _ in run.plain)
    metrics["trace_overhead_share"] = metrics.pop("traced_wall_s") / plain_wall - 1.0
    generate = run.setup_tracer.durations("corpus.generate") if run.setup_tracer else []
    metrics["corpus.generate_s"] = sum(generate)
    metrics.update(kernel_bench())
    return metrics
