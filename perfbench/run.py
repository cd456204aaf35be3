"""Benchmark of the verified vectorization campaign over the TSVC suite.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-sve256 --seed 2024 --seconds 40 --trace 0

Each measured campaign runs in a fresh interpreter (``campaign.py``), so
every one is cold.  A run fits in ``--seconds`` everything it needs (the
pool's serial reference, set-up probes, the oracle) and as many measured
campaigns as it can, at least one, and reports the median of each metric
over them.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced campaigns and reports the per-layer metrics
of the traced ones (see ``README.md``).

The workload seed is the synthetic LLM's base seed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit and every correctness check.  Exit status is 0 when the
benchmark ran, whatever its checks found, and 2 when it cannot run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, ROOT  # noqa: E402

#: Workload -> (kind, target ISA, campaign workers).  ``verify-avx2`` is the
#: serial reference the pool workload is checked against.
WORKLOADS = {
    "verify-avx2": ("verify", "avx2", 1),
    "verify-sve256": ("verify", "sve256", 1),
    "passk-avx2": ("passk", "avx2", 1),
    "verify-avx2-pool": ("verify", "avx2", 2),
}
#: The RQ1 evaluation's completions per kernel (Table 2's k=10 column).
PASSK_COMPLETIONS = 10

#: The synthetic LLM's default seed: the pinned facts below hold only there.
DEFAULT_SEED = 2024
SUITE_KERNELS = 149
#: Verdict counts (equivalent, not_equivalent, inconclusive) at the default seed.
PINNED_VERDICTS = {
    "avx2": (119, 14, 16),
    "sve256": (118, 14, 17),
}
#: passk-avx2 at the default seed: kernels with a plausible completion among
#: k=10, and pass@1.
PINNED_PASSK = (125, 0.3752)
#: The AVX2 golden record of ``tests/test_sve.py`` (``AVX2_GOLDEN``): verdict and
#: final-code SHA of the paper-default AVX2 campaign at the default seed.
AVX2_GOLDEN = [
    ("s000", "equivalent", "c16d704f95f949ad68114eee0aff2897448ef081ebec0fbcafc50dbbe1045976"),
    ("s112", "not_equivalent", None),
    ("s1119", "equivalent", "4d3e5aa64e37233ab80588ade31a1502916be031a69b41db1c4a6813a85a209c"),
    ("s121", "equivalent", "cab25e2b1e68c9d986d66d974d88d624448bbc27b4da81d8b5bb4cae438f672e"),
    ("s212", "equivalent", "a91322630c13b26f8eb9307675927a52edc36d1ac796d8eb6aa6aaaac404fc18"),
    ("s271", "equivalent", "4244a40fe1d04df9563bd79bb13e91a8283872c84c68438ff49d03cb17e2745f"),
    ("vsumr", "equivalent", "e6685a78fed41fb928ee6aabaa4825bcaa5ecc0652a0545ea3e0eeb08d8b62eb"),
    ("s453", "equivalent", "73c9e3a7f71a840f9170318ae35febe452eaa9ffcf2b4b31b072999bb3d35d48"),
    ("s321", "equivalent", "927c057abd632efcbbcb528d063ad8fc1aeaa6285b24d5c2eedd92b5e415e176"),
    ("vif", "equivalent", "a23ed5101d614da8d33917b418bd4b532f2bf1db15a611f709bc191a565a539d"),
]
#: Layers each kind of workload must reach (more than zero calls when traced).
EXERCISED = {
    "verify": tuple(LAYERS),
    "passk": ("llm", "interp.checksum", "interp", "cfront", "vectorizer"),
}
DECIDING_STAGES = ("alive-unroll", "c-unroll", "spatial-splitting", "none")
#: Set-up-only campaigns per untraced run, on top of the measured campaigns'
#: own set-up, for the median ``setup_s``.
SETUP_PROBES = 2
#: One campaign may take this long before the run gives up on it.
CAMPAIGN_TIMEOUT_S = 100

END_TO_END_UNITS = {
    "kernels_per_s": "1/s",
    "kernel_latency_p50_s": "s",
    "kernel_latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_share": "ratio",
}


class CampaignFailed(RuntimeError):
    pass


def campaign(workload: str, seed: int, mode: str = "plain", oracle: bool = False) -> dict:
    """Run one cold campaign in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "campaign.py"), workload, str(seed),
               mode, "1" if oracle else "0"]
    started = time.monotonic()
    # Its own process group, so stopping it stops its pool workers too.
    process = subprocess.Popen(command + [repr(started)], stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, env=env,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CampaignFailed(f"{workload} campaign exceeded {CAMPAIGN_TIMEOUT_S} s") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    if process.returncode != 0 or not stdout.strip():
        raise CampaignFailed(f"{workload} campaign exited with {process.returncode}:\n"
                             + stderr[-2000:])
    return json.loads(stdout.strip().splitlines()[-1])


def repeat_until(deadline: float, make) -> list:
    """Call ``make(index)`` once, then again while half a typical call fits before ``deadline``.

    Stopping there makes a run overshoot and undershoot its window about
    equally, so runs last ``--seconds`` on average.
    """
    results, durations = [], []
    while True:
        call_started = time.monotonic()
        results.append(make(len(results)))
        durations.append(time.monotonic() - call_started)
        if time.monotonic() + statistics.median(durations) / 2 >= deadline:
            return results


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(results: list[dict], setups: list[float], kind: str) -> dict[str, float]:
    """The run's end-to-end metrics: medians over its campaigns.

    The latency percentiles pool every kernel of every campaign.  With 149
    kernels a campaign, p90 leaves at least 14 samples beyond it; p95 would
    leave 7.
    """
    first = results[0]
    latencies = [latency for result in results for latency in result["latencies_s"]]
    solved = (first["plausible"] if kind == "passk"
              else first["verdict_counts"].get("equivalent", 0))
    return {
        "kernels_per_s": statistics.median(r["kernels"] / r["measured_s"] for r in results),
        "kernel_latency_p50_s": statistics.median(latencies),
        "kernel_latency_p90_s": percentile(latencies, 0.90),
        "setup_s": statistics.median([r["setup_s"] for r in results] + setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "solved_share": solved / first["kernels"],
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    layers = traced["layers"]
    for layer in LAYERS:
        tally = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (tally["calls"], "count")
        metrics[f"{layer}.self_s"] = (tally["self_s"], "s")
    metrics["unattributed_s"] = (layers.get(ROOT, {"self_s": 0.0})["self_s"], "s")
    metrics["agents.fsm.attempts"] = (traced.get("attempts", 0), "count")
    stages = traced.get("deciding_stages", [])
    for stage in DECIDING_STAGES:
        metrics[f"alive.verifier.decided.{stage}"] = (stages.count(stage), "count")
    metrics["smt.sat.propagations"] = (traced["solver"].get("propagations", 0), "count")
    metrics["smt.sat.conflicts"] = (traced["solver"].get("conflicts", 0), "count")
    metrics["smt.solvecache.hit_ratio"] = (traced["solve_cache_hit_rate"], "ratio")
    metrics["vectorizer.plancache.hit_ratio"] = (traced["plan_cache_hit_rate"], "ratio")
    metrics["pipeline.campaign.batches"] = (traced["batches"], "count")
    metrics["pipeline.campaign.worker_busy_share"] = (
        traced["busy_s"] / (traced["workers"] * traced["measured_s"]), "ratio")
    metrics["trace.kernels_per_s"] = (traced["kernels"] / traced["measured_s"], "1/s")
    metrics["trace.untraced_kernels_per_s"] = (
        untraced["kernels"] / untraced["measured_s"], "1/s")
    return metrics


def checks(workload: str, seed: int, results: list[dict], traced: list[dict],
           reference: dict | None) -> list[tuple[str, bool, str]]:
    """Every correctness check of one run: (name, passed, detail)."""
    kind, target, _ = WORKLOADS[workload]
    first = results[0]
    found = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        found.append((name, bool(passed), detail))

    check("suite_size", all(r["kernels"] == SUITE_KERNELS for r in results + traced),
          f"{first['kernels']} kernels")
    check("no_error_records", all(r["errors"] == 0 for r in results + traced),
          f"{sum(r['errors'] for r in results + traced)} error records")
    check("deterministic", all(r["signature"] == first["signature"] for r in results[1:]),
          f"{len(results)} cold campaigns")
    if traced:
        check("traced_equals_untraced",
              all(r["signature"] == first["signature"] for r in traced))
        missing = sorted({layer for r in traced for layer in EXERCISED[kind]
                          if r["layers"].get(layer, {}).get("calls", 0) == 0})
        check("layers_exercised", not missing, "missing: " + ", ".join(missing))
    if kind == "passk":
        check("k_completions", all(r["outcome_lengths"] == [PASSK_COMPLETIONS]
                                   for r in results + traced))
        if seed == DEFAULT_SEED:
            got = (first["plausible"], round(first["pass_at_1"], 4))
            check("pinned_passk", got == PINNED_PASSK, f"{got} vs {PINNED_PASSK}")
        return found
    # The oracle ran on the first campaign; "deterministic" extends it to the rest.
    failures = first["oracle_failures"]
    check("oracle_equivalent_code_plausible", not failures, "failed: " + ", ".join(failures))
    if reference is not None:
        check("pool_equals_serial", first["signature"] == reference["signature"])
    if seed == DEFAULT_SEED:
        counts = first["verdict_counts"]
        got = tuple(counts.get(v, 0) for v in ("equivalent", "not_equivalent", "inconclusive"))
        check("pinned_verdicts", got == PINNED_VERDICTS[target],
              f"{got} vs {PINNED_VERDICTS[target]}")
        if target == "avx2":
            signature = {kernel: (verdict, sha) for kernel, verdict, sha in first["signature"]}
            drift = [k for k, verdict, sha in AVX2_GOLDEN if signature.get(k) != (verdict, sha)]
            check("avx2_golden", not drift, "drift: " + ", ".join(drift))
    return found


def describe(results: list[dict], kind: str) -> list[str]:
    """The campaign's own counts, for the human-readable report."""
    first = results[0]
    kernels = first["kernels"]
    lines = [f"kernels: {kernels}",
             f"error_share: {first['errors'] / kernels:.4f}"]
    if kind == "passk":
        lines.append(f"pass_at_k (k={PASSK_COMPLETIONS}): {first['plausible']}/{kernels}"
                     f" = {first['plausible'] / kernels:.4f}")
        lines.append(f"pass_at_1: {first['pass_at_1']:.4f}")
    else:
        counts = first["verdict_counts"]
        lines.append("verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        lines.append(f"verified_share: {counts.get('equivalent', 0)}/{kernels}"
                     f" = {counts.get('equivalent', 0) / kernels:.4f}")
        lines.append(f"fsm attempts: {first['attempts']}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    kind, _, workers = WORKLOADS[workload]
    deadline = time.monotonic() + seconds
    # The pool must reach exactly the serial campaign's verdicts and code.
    reference = campaign("verify-avx2", seed) if workers > 1 else None
    if trace:
        pairs = repeat_until(deadline, lambda i: (campaign(workload, seed, oracle=i == 0),
                                                  campaign(workload, seed, "trace")))
        results = [untraced for untraced, _ in pairs]
        traced = [traced for _, traced in pairs]
    else:
        setups = [campaign(workload, seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        results = repeat_until(deadline, lambda i: campaign(workload, seed, oracle=i == 0))
        traced = []

    found = checks(workload, seed, results, traced, reference)
    lines = [f"workload {workload}, seed {seed}: {len(results)} cold campaigns"
             + (f" + {len(traced)} traced" if traced else "")]
    lines += describe(results, kind)
    lines.append("campaign kernels_per_s: " + ", ".join(
        f"{r['kernels'] / r['measured_s']:.2f}" for r in results))
    if trace:
        samples = [per_layer(t, u) for u, t in pairs]
        metrics = {name: {"value": statistics.median(sample[name][0] for sample in samples),
                          "unit": unit}
                   for name, (_, unit) in samples[0].items()}
    else:
        values = end_to_end(results, setups, kind)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    lines += [f"{name}: {metric['value']:.6g} {metric['unit']}"
              for name, metric in metrics.items()]
    lines += [f"check {name}: ok" if passed else f"check {name}: FAILED ({detail})"
              for name, passed, detail in found]
    everything = results + traced
    summary = {
        "correct": all(passed for _, passed, _ in found),
        "attempted": sum(r["kernels"] for r in everything),
        "failed": sum(r["errors"] for r in everything),
        "metrics": metrics,
    }
    return summary, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so running campaigns are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is missing",
              file=sys.stderr)
        return 2
    try:
        summary, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CampaignFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
