"""Record every CDCL solver call of a campaign into a replayable SAT corpus.

Runs one serial, paper-default campaign (149 TSVC kernels, int32, synthetic
LLM at ``--seed``) with :class:`repro.smt.sat.CDCLSolver` wrapped so that each
solver's constructor budgets, ``new_var`` calls, ``add_clause`` calls and
``solve(assumptions)`` calls are logged in order.  Each ``solve`` is
annotated with its result, its :class:`~repro.smt.sat.SATStatistics` delta
and a digest of its model, which is what ``sat_replay.py --check`` and the
trajectory pin test in ``tests/test_solver.py`` compare against.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/sat_record.py --target sve256
    PYTHONPATH=src python benchmarks/sat_record.py --target avx2

writes ``benchmarks/corpus/sat/<target>.json.gz``.  Run it once per target,
each in a fresh process: the solve cache is process-wide, so a second
campaign in the same process would hit the first one's answers instead of
solving.  Record with the solver whose trajectory is the reference; a change
to the solver that is meant to keep every trajectory must replay the
existing corpus unchanged rather than re-record it.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from sat_replay import CORPUS_DIR, FORMAT, model_digest, stats_delta  # noqa: E402

from repro.llm.synthetic import SyntheticLLMConfig  # noqa: E402
from repro.pipeline import CampaignConfig, CampaignRunner, LLMVectorizerConfig  # noqa: E402
from repro.smt import sat  # noqa: E402


def install_recorder(solvers: list[dict]) -> None:
    """Wrap ``CDCLSolver`` so every instance logs its calls into ``solvers``."""
    cls = sat.CDCLSolver
    original_init, original_new_var = cls.__init__, cls.new_var
    original_add_clause, original_solve = cls.add_clause, cls.solve

    def __init__(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._recording = {"propagation_budget": self.propagation_budget,
                           "conflict_budget": self.conflict_budget, "ops": []}
        solvers.append(self._recording)

    def new_var(self):
        ops = self._recording["ops"]
        if ops and ops[-1][0] == "v":
            ops[-1][1] += 1
        else:
            ops.append(["v", 1])
        return original_new_var(self)

    def add_clause(self, literals):
        self._recording["ops"].append(["c", list(literals)])
        return original_add_clause(self, literals)

    def solve(self, assumptions=None):
        before = self.stats.as_dict()
        result, model = original_solve(self, assumptions)
        self._recording["ops"].append(["s", list(assumptions or []), {
            "result": result.value,
            "stats": stats_delta(before, self.stats.as_dict()),
            "model": model_digest(model),
        }])
        return result, model

    cls.__init__, cls.new_var = __init__, new_var
    cls.add_clause, cls.solve = add_clause, solve


def record(target: str, seed: int) -> dict:
    solvers: list[dict] = []
    install_recorder(solvers)
    runner = CampaignRunner(CampaignConfig(workers=1, target=target))
    report = runner.run(vectorizer_config=LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=seed)))
    return {
        "format": FORMAT,
        "campaign": {"target": target, "seed": seed, "dtype": "int32", "workers": 1,
                     "verdict_counts": report.summary.verdict_counts},
        "solvers": solvers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", required=True, help="ISA of the campaign, e.g. sve256")
    parser.add_argument("--seed", type=int, default=2024, help="synthetic LLM seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: benchmarks/corpus/sat/<target>.json.gz)")
    args = parser.parse_args(argv)
    corpus = record(args.target, args.seed)
    out = args.out or CORPUS_DIR / f"{args.target}.json.gz"
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(corpus, separators=(",", ":"), sort_keys=True).encode()
    # mtime=0 keeps a re-recording to the same path byte-identical.
    with open(out, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(payload)
    solves = sum(op[0] == "s" for solver in corpus["solvers"] for op in solver["ops"])
    print(f"{out}: {len(corpus['solvers'])} solvers, {solves} solve calls, "
          f"{out.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
