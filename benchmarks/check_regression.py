"""Guard the committed benchmark baselines against perf regressions.

Compares freshly measured benchmark payloads against the committed
baseline JSON files (``BENCH_pipeline.json``, ``BENCH_scheduler.json``)
and fails when a *relative* metric regressed by more than the tolerance.

Only machine-independent ratios are compared — the cached-vs-uncached
pipeline speedup and the compiled-vs-reference scheduler speedup — never
absolute seconds: CI runners differ from the machines that wrote the
baselines, but a speedup is a ratio of two runs on the *same* machine,
so it transfers.  Boolean parity flags must simply stay true, and every
config present in a baseline must still be present in the fresh payload
— a config that silently disappears from the results dict is a failure,
not a pass-by-omission.

Very large speedups (a 300x compiled-vs-reference scheduler ratio)
jitter by tens of percent run to run, so values are clamped to
``--cap`` (default 10) before comparing: a drop from 300x to 94x
passes, a collapse from 300x to 3x fails.

Usage::

    PYTHONPATH=src python benchmarks/baseline.py --out fresh_pipeline.json
    PYTHONPATH=src python benchmarks/bench_scheduler_throughput.py \
        --out fresh_scheduler.json
    python benchmarks/check_regression.py \
        fresh_pipeline.json=BENCH_pipeline.json \
        fresh_scheduler.json=BENCH_scheduler.json \
        --tolerance 0.2

Each positional argument is a ``FRESH=BASELINE`` pair; the benchmark
kind is read from the payload's ``benchmark`` field.  Exit status is
non-zero when any compared metric fell below ``baseline * (1 -
tolerance)`` or a parity flag flipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: benchmark kind -> extractor returning {metric name: value} where every
#: value is a machine-independent float (higher is better) or a bool.
def _pipeline_metrics(payload: dict) -> dict:
    metrics: dict[str, float | bool] = {}
    for adt, entry in payload["results"].items():
        metrics[f"{adt}.speedup"] = entry["speedup"]
        metrics[f"{adt}.parity"] = entry["parity"]
        total = entry.get("stage_speedups", {}).get("total")
        if total is not None:
            metrics[f"{adt}.stage_speedups.total"] = total
    return metrics


def _scheduler_metrics(payload: dict) -> dict:
    metrics: dict[str, float | bool] = {}
    for config, entry in payload["results"].items():
        metrics[f"{config}.parity"] = entry["parity"]
        # Only configs the writer itself holds to a speedup bar are
        # regression-gated; the rest are parity-only by design.
        if entry.get("enforce_speedup") and entry["speedup"] is not None:
            metrics[f"{config}.speedup"] = entry["speedup"]
    return metrics


def _obs_metrics(payload: dict) -> dict:
    results = payload["results"]
    metrics: dict[str, float | bool] = {
        "overhead.throughput_ratio": results["overhead"]["throughput_ratio"],
    }
    for flag, value in results["determinism"].items():
        if isinstance(value, bool):
            metrics[f"determinism.{flag}"] = value
    return metrics


def _serving_metrics(payload: dict) -> dict:
    results = payload["results"]
    metrics: dict[str, float | bool] = {}
    for config, entry in results.items():
        for flag in ("parity", "serializable", "audit_passed",
                     "no_resurrection"):
            if flag in entry:
                metrics[f"{config}.{flag}"] = entry[flag]
        # Serving throughput is *sim-time* goodput — deterministic from
        # the seed, so unlike wall-clock it transfers across machines
        # and the tolerance only absorbs intentional behaviour changes.
        if "sim_throughput" in entry:
            metrics[f"{config}.sim_throughput"] = entry["sim_throughput"]
    serial = results.get("account_serial", {}).get("sim_throughput")
    batched = results.get("account_batched", {}).get("sim_throughput")
    if serial and batched:
        metrics["batch_speedup"] = batched / serial
    adaptive = results.get("qstack_adaptive", {}).get("sim_throughput")
    statics = [
        entry["sim_throughput"]
        for config, entry in results.items()
        if config.startswith("qstack_static_")
    ]
    if adaptive and statics:
        metrics["adaptive_over_best_static"] = adaptive / max(statics)
    # The overload-hardening gate: committed work under 2x load plus
    # faults relative to nominal (graceful degradation, not per-time
    # throughput — fault stalls legitimately stretch the sim clock).
    nominal = results.get("qstack_overload_nominal", {}).get("goodput_ops")
    stressed = results.get("qstack_overload_faults", {}).get("goodput_ops")
    if nominal and stressed:
        metrics["degraded_goodput_ratio"] = stressed / nominal
    return metrics


_EXTRACTORS = {
    "pipeline": _pipeline_metrics,
    "scheduler_throughput": _scheduler_metrics,
    "obs": _obs_metrics,
    "serving": _serving_metrics,
}


def compare(
    fresh: dict, baseline: dict, tolerance: float, cap: float = 10.0
) -> list[str]:
    """Regressions of ``fresh`` against ``baseline`` (empty = all good)."""
    kind = baseline.get("benchmark")
    if fresh.get("benchmark") != kind:
        return [
            f"benchmark kind mismatch: fresh={fresh.get('benchmark')!r} "
            f"baseline={kind!r}"
        ]
    extractor = _EXTRACTORS.get(kind)
    if extractor is None:
        return [f"unknown benchmark kind {kind!r}"]
    fresh_metrics = extractor(fresh)
    failures = []
    # A config present in the baseline must still be measured: a rename
    # or a dropped entry must fail loudly, never pass by omission.
    fresh_results = fresh.get("results", {})
    for config in baseline.get("results", {}):
        if config not in fresh_results:
            failures.append(
                f"{kind}:{config}: config missing from fresh results"
            )
    for name, base_value in extractor(baseline).items():
        fresh_value = fresh_metrics.get(name)
        if fresh_value is None:
            failures.append(f"{kind}:{name}: missing from fresh payload")
        elif isinstance(base_value, bool):
            if base_value and not fresh_value:
                failures.append(f"{kind}:{name}: flipped to False")
        elif min(fresh_value, cap) < min(base_value, cap) * (1.0 - tolerance):
            failures.append(
                f"{kind}:{name}: {fresh_value} is more than "
                f"{tolerance:.0%} below baseline {base_value} "
                f"(both clamped to {cap})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "pairs", nargs="+", metavar="FRESH=BASELINE",
        help="fresh payload and committed baseline JSON paths",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional drop of a relative metric (default 0.2)",
    )
    parser.add_argument(
        "--cap", type=float, default=10.0,
        help="clamp speedups to this value before comparing (default 10)",
    )
    args = parser.parse_args(argv)

    failures = []
    for pair in args.pairs:
        if "=" not in pair:
            print(f"not a FRESH=BASELINE pair: {pair}", file=sys.stderr)
            return 2
        fresh_path, baseline_path = pair.split("=", 1)
        try:
            fresh = json.loads(Path(fresh_path).read_text())
            baseline = json.loads(Path(baseline_path).read_text())
        except (OSError, ValueError) as error:
            print(f"cannot load {pair}: {error}", file=sys.stderr)
            return 2
        pair_failures = compare(fresh, baseline, args.tolerance, args.cap)
        status = "FAIL" if pair_failures else "ok"
        print(
            f"{status}: {fresh_path} vs {baseline_path} "
            f"({baseline.get('benchmark')})"
        )
        failures.extend(pair_failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
