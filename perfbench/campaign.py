"""One cold campaign of one benchmark workload, in this (fresh) process.

Started by ``run.py`` as ``python3 perfbench/campaign.py <workload> <seed>
<mode> <oracle> <started>`` from the repository root, with ``src`` on the
path.  ``mode`` is ``plain``, ``trace`` (with the layer tracer installed) or
``setup`` (every kernel's job replaced by a no-op, which times set-up alone).
``started`` is the launching process's ``time.monotonic()`` just before it
started this interpreter, so set-up time covers interpreter start-up and
imports.  The module-level caches of ``repro`` have no global reset, which
is why every campaign gets a fresh interpreter: each one is the cold
campaign a user pays for.

Prints one JSON object: the timings, the per-kernel signature
(kernel, verdict, final-code SHA), the counts the correctness checks need
and, when traced, the per-layer tallies.  With ``oracle`` set, the
independent checksum oracle runs after the measured phase.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time

import tracer
from run import PASSK_COMPLETIONS, WORKLOADS

from repro.experiments import run_checksum_evaluation
from repro.interp.checksum import checksum_testing
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.pipeline import CampaignConfig, CampaignRunner, LLMVectorizerConfig
from repro.tsvc import load_suite

#: The checksum seed of the independent oracle.  The pipeline's own
#: checksum stage runs at seed 0, so the oracle draws inputs it never saw.
ORACLE_CHECKSUM_SEED = 7919

BENCH_KEY = "_bench"


def timed_job(job, task):
    """Run one kernel's job and attach its timings to the result.

    Runs wherever the job runs (in a pool worker too), so it reads a
    cross-process clock and the process's own peak memory.  The extra key
    is ignored by everything that reads the result, including the
    signature the correctness checks compare.
    """
    active = tracer.installed()
    if active is not None:
        active.reset()
    started = time.monotonic()
    with active.span(tracer.ROOT) if active is not None else contextlib.nullcontext():
        result = job(task)
    bench = {"start": started, "end": time.monotonic(), "pid": os.getpid(),
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if active is not None:
        bench["layers"] = active.totals()
    return {**result, BENCH_KEY: bench}


def skipped_job(task):
    """A stand-in job that does no work, shaped like both workloads' results."""
    return {"kernel": task.kernel, "outcomes": [], "first_plausible_index": None,
            "first_plausible_code": None}


class TimedRunner(CampaignRunner):
    """The public runner, with every kernel's job wrapped by :func:`timed_job`.

    With ``skip_work`` every job is :func:`skipped_job`, so the campaign
    times its set-up and nothing else.
    """

    def __init__(self, config: CampaignConfig, skip_work: bool = False):
        super().__init__(config)
        self.skip_work = skip_work
        self.last_report = None

    def run_tasks(self, job, tasks, **kwargs):
        job = skipped_job if self.skip_work else job
        self.last_report = super().run_tasks(functools.partial(timed_job, job), tasks, **kwargs)
        return self.last_report


def oracle_failures(kernels, records) -> list[str]:
    """Kernels whose EQUIVALENT final code fails checksum testing at a fresh seed."""
    sources = {kernel.name: kernel.source for kernel in kernels}
    return [record.kernel for record in records
            if record.result.get("verdict") == "equivalent"
            and not checksum_testing(sources[record.kernel], record.result["final_code"],
                                     seed=ORACLE_CHECKSUM_SEED).is_plausible]


def main(workload: str, seed: int, mode: str, oracle: bool, started: float) -> dict:
    kind, target, workers = WORKLOADS[workload]
    active = None
    if mode == "trace":
        active = tracer.Tracer()
        active.install()
    runner = TimedRunner(CampaignConfig(workers=workers, target=target, batch_size="auto"),
                         skip_work=mode == "setup")
    llm_config = SyntheticLLMConfig(seed=seed)
    if kind == "passk":
        evaluation = run_checksum_evaluation(
            num_completions=PASSK_COMPLETIONS, llm=SyntheticLLM(llm_config),
            campaign=runner, target=target)
    else:
        runner.run(vectorizer_config=LLMVectorizerConfig(llm=llm_config))
    finished = time.monotonic()
    report = runner.last_report
    # The runner's cache holds each result as the job returned it; a job's
    # ``cache_adapt`` may have reshaped the record's copy.
    benches = [result[BENCH_KEY] for result in (runner.cache.peek(r.key) for r in report.records)
               if BENCH_KEY in result]
    first_dispatch = min(bench["start"] for bench in benches)
    out: dict = {"setup_s": first_dispatch - started}
    if mode == "setup":
        return out

    summary = report.summary
    if kind == "passk":
        out["plausible"] = evaluation.table2_row(PASSK_COMPLETIONS)["Plausible"]
        out["pass_at_1"] = evaluation.pass_at_k([1])[1]
        out["outcome_lengths"] = sorted({len(r.outcomes) for r in evaluation.records})
        out["signature"] = [[r.kernel, [o.value for o in r.outcomes]]
                            for r in evaluation.records]
    else:
        out["signature"] = [[r.kernel, r.result["verdict"], r.result.get("final_code_sha")]
                            for r in report.records]
        out["attempts"] = sum(r.result.get("attempts", 0) for r in report.records)
        out["deciding_stages"] = [r.result.get("deciding_stage") for r in report.records]
    peak_rss_kb = {os.getpid(): resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    for bench in benches:
        peak_rss_kb[bench["pid"]] = max(peak_rss_kb.get(bench["pid"], 0), bench["maxrss_kb"])
    out.update({
        "kernels": summary.kernels,
        "errors": summary.verdict_counts.get("error", 0),
        "verdict_counts": summary.verdict_counts,
        "measured_s": finished - first_dispatch,
        "latencies_s": [bench["end"] - bench["start"] for bench in benches],
        "busy_s": sum(bench["end"] - bench["start"] for bench in benches),
        "workers": max(1, summary.workers),
        "peak_rss_mb": sum(peak_rss_kb.values()) / 1024.0,
        "batches": summary.batches,
        "solver": summary.solver,
        "plan_cache_hit_rate": summary.plan_cache_hit_rate,
        "solve_cache_hit_rate": summary.solve_cache_hit_rate,
    })
    if active is not None:
        layers: dict[str, dict[str, float]] = {}
        for bench in benches:
            for layer, tally in bench["layers"].items():
                slot = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
                slot["calls"] += tally["calls"]
                slot["self_s"] += tally["self_s"]
        out["layers"] = layers
    if oracle and kind == "verify":
        out["oracle_failures"] = oracle_failures(load_suite(), report.records)
    return out


if __name__ == "__main__":
    workload_arg, seed_arg, mode_arg, oracle_arg, started_arg = sys.argv[1:6]
    print(json.dumps(main(workload_arg, int(seed_arg), mode_arg, oracle_arg == "1",
                          float(started_arg))), flush=True)
    # Skip the interpreter's teardown of a large heap: nothing is left to release.
    os._exit(0)
