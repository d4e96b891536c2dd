"""Run one vidspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload long_video --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. One
single-threaded closed-loop client in this process sends the workload's
requests back to back for ``--seconds``. Every metric is printed by name with
its unit; the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer ones, taken from spans around every call
in the second half of the run (the first half runs untraced, to measure the
tracing overhead). Spans and a full result record go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("long_video", "tree_verify", "greedy_decode")

SPAN_METRICS = {  # per-layer metric -> span name; value is the median call in ms
    "sequence.full_ms": "sequence.full",
    "model.prefill_ms": "model.prefill",
    "model.prefill_capture_ms": "model.prefill_capture",
    "guidance.extract_ms": "guidance.extract",
    "guidance.score_ms": "guidance.score",
    "pruning.apply_ms": "pruning.apply",
    "model.draft_prefill_ms": "model.draft_prefill",
    "model.forward_tree_ms": "model.forward_tree",
    "model.kv_rollback_ms": "model.kv_rollback",
    "model.decode_step_ms": "model.decode_step",
}


def cap_blas_threads() -> tuple[int, int]:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def git_commit() -> str:
    """The checked-out commit, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median_ms(seconds: list[float]) -> float:
    return 1000.0 * statistics.median(seconds) if seconds else 0.0


def percentile_ms(seconds: list[float], q: int) -> float | None:
    """q-th percentile in ms, or None when there is no sample."""
    if not seconds:
        return None
    if len(seconds) == 1:
        return 1000.0 * seconds[0]
    return 1000.0 * statistics.quantiles(seconds, n=100, method="inclusive")[q - 1]


def mean(values) -> float:
    values = list(values)
    return float(sum(values)) / len(values) if values else 0.0


def send(workload, models, rec, samples, seed: int, stream: int, index: int, gen) -> None:
    request, frame_choices = workload
    rng = gen.request_rng(seed, stream, index)
    frames = gen.frame_count(seed, stream, index, frame_choices)
    rec.request = index
    with rec.phase("request"):
        request(models, rec, samples, rng, frames, index)


def run_loop(workload, models, rec, samples, seed: int, seconds: float, gen) -> list[float]:
    """Closed loop: the next request starts when the previous one returns.

    Returns the wall-clock seconds of each request sent, checks included.
    """
    start = time.perf_counter()
    request_s = []
    while time.perf_counter() - start < seconds:
        began = time.perf_counter()
        send(workload, models, rec, samples, seed, gen.MEASURED, len(request_s), gen)
        request_s.append(time.perf_counter() - began)
    return request_s


def closed_loop_rate(request_s: list[float], block: int) -> float:
    """Requests per wall-clock second: the median over blocks of ``block`` requests.

    Consecutive blocks of ``block`` requests each hold every prompt size once
    (see ``inputs.frame_count``), so every block has the same work mix. The
    median over blocks drops the host's slow spells that a whole-run mean
    would keep. A run shorter than one block is taken whole.
    """
    sums = [sum(request_s[i : i + block]) for i in range(0, len(request_s) - block + 1, block)]
    if not sums:
        return len(request_s) / sum(request_s)
    return block / statistics.median(sums)


def end_to_end(setup_s: list[float], samples, request_s: list[float], block: int) -> dict[str, tuple[float | None, str]]:
    prompts = samples.prompt_s
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "prompt_ms_p50": (1000.0 * statistics.median(prompts) if prompts else None, "ms"),
        "work_ms_p50": (median_ms(samples.work_s) if samples.work_s else None, "ms"),
        "prompts_per_s": (closed_loop_rate(request_s, block), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def workload_report(workload: str, rec, samples) -> dict[str, tuple[float | None, str]]:
    """The workload's own step metrics and its failure share, untraced.

    These exist on one workload each (and greedy decode has no successful
    step at the seed), so they are printed and recorded but not bound-gated.
    """
    out = {"failed_frac": (rec.failed / rec.attempted if rec.attempted else 0.0, "ratio")}
    if workload == "tree_verify":
        out["verify_step_ms_p50"] = (percentile_ms(samples.step_s, 50), "ms")
        out["verify_step_ms_p90"] = (percentile_ms(samples.step_s, 90), "ms")
        out["committed_tokens_per_s"] = (
            samples.tokens / samples.gen_s if samples.gen_s else 0.0,
            "1/s",
        )
    elif workload == "greedy_decode":
        out["decode_token_ms_p50"] = (percentile_ms(samples.step_s, 50), "ms")
        out["decode_token_ms_p90"] = (percentile_ms(samples.step_s, 90), "ms")
        out["decode_tokens_per_s"] = (
            samples.tokens / samples.gen_s if samples.gen_s else 0.0,
            "1/s",
        )
    return out


def per_layer(setup_rec, warm_rec, plain_rec, plain, traced_rec, traced, pruner_names) -> dict:
    rec, samples = traced_rec, traced
    out = {
        "model.init_ms": (median_ms(setup_rec.durations("model.init")), "ms"),
        "model.checkpoint_save_ms": (median_ms(setup_rec.durations("model.save_checkpoint")), "ms"),
        "model.checkpoint_load_ms": (median_ms(setup_rec.durations("model.load_checkpoint")), "ms"),
    }
    for metric, span in SPAN_METRICS.items():
        out[metric] = (median_ms(rec.durations(span)), "ms")
    out["model.first_decode_step_ms"] = (median_ms(rec.first_durations("model.decode_step")), "ms")
    for method in pruner_names:
        out[f"pruning.plan_ms.{method}"] = (median_ms(rec.durations(f"pruning.plan.{method}")), "ms")
    # tracemalloc ran only in the warm-up request, so no timed span pays for it
    peaks = warm_rec.peak_mib["model.prefill"] + warm_rec.peak_mib["model.prefill_capture"]
    out["model.prefill_peak_mib"] = (statistics.median(peaks) if peaks else 0.0, "MiB")
    out["model.cache_capacity_ratio"] = (
        statistics.median(samples.capacity_ratio) if samples.capacity_ratio else 0.0,
        "ratio",
    )
    out["model.tree_node_yield"] = (
        samples.tokens / samples.nodes_verified if samples.nodes_verified else 0.0,
        "ratio",
    )
    out["pruning.v_r"] = (mean(samples.v_r), "count")
    out["pruning.v_u"] = (mean(samples.v_u), "count")
    out["pruning.stage1_truncated_frac"] = (mean(samples.stage1_truncated), "ratio")
    out["guidance.kept_mass"] = (mean(samples.kept_mass), "ratio")
    out["ops.failed.vidspec"] = (plain_rec.vidspec_failed + traced_rec.vidspec_failed, "count")
    out["ops.failed.other"] = (plain_rec.other_failed + traced_rec.other_failed, "count")
    out["ops.failed.check"] = (plain_rec.check_failed + traced_rec.check_failed, "count")
    common = min(len(plain.prompt_s), len(traced.prompt_s))
    overhead = (
        1000.0 * (statistics.median(traced.prompt_s[:common]) - statistics.median(plain.prompt_s[:common]))
        if common
        else 0.0
    )
    out["trace.overhead_ms"] = (overhead, "ms")
    return out


def print_metrics(title: str, metrics: dict, counts: dict[str, int] | None = None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "no sample" if value is None else f"{value:.6g} {unit}"
        n = f"  (n={counts[name]})" if counts and name in counts else ""
        print(f"  {name:32s} {shown}{n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc, blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np

        import inputs as gen
        import workloads
        from recorder import Recorder
        from vidspec.errors import VidspecError
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    env = {
        "nproc": nproc,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }
    workload = workloads.WORKLOADS[args.workload]
    needs_draft = args.workload in workloads.NEEDS_DRAFT
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR))
    try:
        # Set-up is what a user pays before the first request: build each
        # model, write its checkpoint and load it back. Repeated, median kept.
        roles = [("", workloads.VERIFIER)] + ([(".draft", workloads.DRAFT)] if needs_draft else [])
        setup_rec = Recorder(bool(args.trace), VidspecError)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            built = [workloads.set_up(setup_rec, role, config, scratch / f"model{role}.ckpt") for role, config in roles]
            setup_s.append(time.perf_counter() - start)
            if any(model is None for model in built):
                for trace in setup_rec.tracebacks.values():
                    print(trace, file=sys.stderr)
                print("perfbench: set-up failed", file=sys.stderr)
                return 1
        verifier, draft = built[0], built[1] if needs_draft else None
        models = workloads.Models(verifier, draft)

        # One request outside the measurement, so lazy set-up is not timed.
        # A traced run takes the verifier prefill's peak memory here.
        warm = Recorder(False, VidspecError, measure_peak=bool(args.trace))
        send(workload, models, warm, workloads.Samples(), args.seed, gen.WARMUP, 0, gen)

        plain_rec = Recorder(False, VidspecError)
        plain = workloads.Samples()
        traced_rec = Recorder(True, VidspecError)
        traced = workloads.Samples()
        if args.trace:
            half = args.seconds / 2.0
            plain_s = run_loop(workload, models, plain_rec, plain, args.seed, half, gen)
            traced_s = run_loop(workload, models, traced_rec, traced, args.seed, half, gen)
        else:
            plain_s = run_loop(workload, models, plain_rec, plain, args.seed, args.seconds, gen)
            traced_s = []
        n_plain, n_traced = len(plain_s), len(traced_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = plain_rec.attempted + traced_rec.attempted
    failed = plain_rec.failed + traced_rec.failed
    correct = plain_rec.check_failed + traced_rec.check_failed == 0
    failures = sorted((plain_rec.failures + traced_rec.failures).items())

    e2e = end_to_end(setup_s, plain, plain_s, len(workload[1]))
    report = workload_report(args.workload, plain_rec, plain)
    counts = {
        "prompt_ms_p50": len(plain.prompt_s),
        "work_ms_p50": len(plain.work_s),
        "prompts_per_s": n_plain,
        "setup_s": len(setup_s),
    }
    for name in report:
        if name.startswith(("verify_step", "decode_token_ms")):
            counts[name] = len(plain.step_s)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"requests {n_plain} untraced, {n_traced} traced; ops attempted {attempted}, failed {failed}")
    for (call, kind), n in failures:
        print(f"  failed {call}: {kind} x {n}")
    for message in plain_rec.check_messages + traced_rec.check_messages:
        print(f"  check: {message}")
    for trace in {**plain_rec.tracebacks, **traced_rec.tracebacks}.values():
        print(trace, file=sys.stderr)
    print_metrics("end-to-end (untraced)", {**e2e, **report}, counts)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failures": {f"{call}:{kind}": n for (call, kind), n in failures},
        "end_to_end": {k: v for k, (v, _) in {**e2e, **report}.items()},
        "request_s": plain_s,
    }
    if args.trace:
        layers = per_layer(setup_rec, warm, plain_rec, plain, traced_rec, traced, workloads.PRUNER_NAMES)
        print_metrics("per-layer (traced)", layers)
        record["per_layer"] = {k: v for k, (v, _) in layers.items()}
        for key, rec in (("setup_spans", setup_rec), ("spans", traced_rec)):
            record[key] = [[s.name, s.start, s.end, s.parent, s.request] for s in rec.spans]
        chosen = layers
    else:
        chosen = e2e
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
