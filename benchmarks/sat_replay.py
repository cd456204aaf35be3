"""Replay the recorded SAT corpus: CDCL propagations/s and trajectory drift.

The corpus under ``benchmarks/corpus/sat/`` holds every ``CDCLSolver`` call
sequence of serial seed-2024 campaigns, one gzipped JSON file per target,
written by ``sat_record.py``.  Replaying it rebuilds each solver with the
recorded budgets, re-issues its ``new_var`` / ``add_clause`` /
``solve(assumptions)`` calls in order, and compares every solve's result,
statistics delta and model digest with the recording.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/sat_replay.py [--repeats 5] [--check] [CORPUS ...]

For each corpus it prints the propagations/s of every repeat (propagations
over the time spent inside ``solve``), then their median and interquartile
range.  ``--check`` exits with status 1 when any solve drifts from its
recorded trajectory; the solver's budgets are counted in exactly these
steps, so a drift can change which queries end Inconclusive.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "benchmarks" / "corpus" / "sat"
#: Version of the corpus layout written by ``sat_record.py``.
FORMAT = 1


def model_digest(model: dict[int, bool]) -> str:
    """A short digest of a SAT model: its true/false literals in variable order."""
    literals = ",".join(str(var if value else -var) for var, value in sorted(model.items()))
    return hashlib.sha256(literals.encode()).hexdigest()[:16]


def stats_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before[name] for name in after}


def corpus_paths() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.json.gz"))


def load_corpus(path: Path) -> dict:
    with gzip.open(path, "rb") as handle:
        corpus = json.loads(handle.read())
    if corpus.get("format") != FORMAT:
        raise ValueError(f"{path}: unsupported corpus format {corpus.get('format')!r}")
    return corpus


@dataclass
class Replay:
    """The outcome of replaying one corpus once."""

    solves: int = 0
    propagations: int = 0
    solve_seconds: float = 0.0
    drift: list[str] = field(default_factory=list)

    @property
    def propagations_per_s(self) -> float:
        return self.propagations / self.solve_seconds if self.solve_seconds else 0.0


def replay(corpus: dict, after_solve: Callable[[Any], None] | None = None) -> Replay:
    """Re-issue every recorded solver call and compare each solve with its record.

    ``after_solve(solver)``, when given, runs after every solve (outside the
    timed region), for checks on the solver's state.
    """
    from repro.smt.sat import CDCLSolver

    outcome = Replay()
    clock = time.perf_counter
    for index, spec in enumerate(corpus["solvers"]):
        solver = CDCLSolver(propagation_budget=spec["propagation_budget"],
                            conflict_budget=spec["conflict_budget"])
        for op in spec["ops"]:
            if op[0] == "v":
                for _ in range(op[1]):
                    solver.new_var()
            elif op[0] == "c":
                solver.add_clause(op[1])
            else:
                _, assumptions, expected = op
                before = solver.stats.as_dict()
                started = clock()
                result, model = solver.solve(assumptions)
                outcome.solve_seconds += clock() - started
                observed = {"result": result.value,
                            "stats": stats_delta(before, solver.stats.as_dict()),
                            "model": model_digest(model)}
                if after_solve is not None:
                    after_solve(solver)
                outcome.solves += 1
                outcome.propagations += observed["stats"]["propagations"]
                if observed != expected:
                    outcome.drift.append(
                        f"solver {index}, solve {outcome.solves}: "
                        f"recorded {expected}, replayed {observed}")
    return outcome


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (0 for a single value)."""
    if len(values) < 2:
        return values[0], 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), high - low


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpora", nargs="*", type=Path,
                        help="corpus files (default: every benchmarks/corpus/sat/*.json.gz)")
    parser.add_argument("--repeats", type=int, default=5, help="replays per corpus")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any solve drifts from its recorded trajectory")
    args = parser.parse_args(argv)
    paths = args.corpora or corpus_paths()
    if not paths:
        print(f"no corpus under {CORPUS_DIR}", file=sys.stderr)
        return 2
    drifted = False
    for path in paths:
        corpus = load_corpus(path)
        rates = []
        for repeat in range(args.repeats):
            outcome = replay(corpus)
            rates.append(outcome.propagations_per_s)
            print(f"{path.name} #{repeat + 1}: {outcome.solves} solves, "
                  f"{outcome.propagations} propagations in {outcome.solve_seconds:.3f} s "
                  f"= {outcome.propagations_per_s:,.0f} propagations/s")
            for line in outcome.drift:
                drifted = True
                print(f"  DRIFT {line}")
        median, iqr = spread(rates)
        print(f"{path.name}: propagations/s median {median:,.0f}, IQR {iqr:,.0f} "
              f"(n={len(rates)})")
    if args.check:
        print("trajectory check:", "DRIFT" if drifted else "ok")
        return 1 if drifted else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
