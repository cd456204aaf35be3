"""Solver fast-path tests: CDCL engine upgrades, incremental solving, solve cache.

Covers the PR's acceptance surface:

* restarts actually happen and are counted (``SATStatistics.restarts``);
* the CDCL engine agrees with a brute-force model enumerator on randomized
  small formulas, SAT and UNSAT alike;
* incremental solving under assumption literals returns the same verdicts
  as a cold solver per query;
* the alpha-canonical pair memo collapses lane/unroll copies of one kernel
  into a single solve without changing the batch verdict;
* the solved-query cache returns bit-identical results on hits, persists
  across save/load, and never counts seeding as solving;
* the solver's trajectory is pinned: replaying the recorded campaign corpus
  (``benchmarks/corpus/sat``) reproduces every solve's result, statistics
  and model, because budgets counted in exactly those steps decide which
  queries end Inconclusive.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.pipeline.campaign import CampaignSummary
from repro.smt import solvecache
from repro.smt.equiv import (
    EquivalenceChecker,
    EquivalenceOutcome,
    SolverBudget,
    _alpha_canonical_pair,
)
from repro.smt.sat import CDCLSolver, SATResult, luby
from repro.smt.terms import TermKind, bv_const, bv_var, mk

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import sat_replay  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_solve_cache():
    solvecache.clear_caches()
    yield
    solvecache.clear_caches()


def brute_force(num_vars: int, clauses: list[list[int]]) -> bool:
    """Reference decision procedure: enumerate all 2^n assignments."""
    for bits in range(1 << num_vars):
        values = {v: bool((bits >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
        if all(any(values[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False


def pigeonhole_clauses(pigeons: int, holes: int) -> list[list[int]]:
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append([-var(i, j), -var(k, j)])
    return clauses


class TestRestartsAndStatistics:
    def test_luby_sequence_prefix(self):
        assert [luby(i) for i in range(1, 10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]

    def test_pigeonhole_unsat_with_restarts_counted(self):
        # PHP(7,6) needs thousands of conflicts: enough to cross several
        # Luby restart horizons while staying well inside the budget.
        solver = CDCLSolver()
        for clause in pigeonhole_clauses(7, 6):
            solver.add_clause(clause)
        result, _ = solver.solve()
        assert result is SATResult.UNSAT
        assert solver.stats.restarts > 0
        assert solver.stats.conflicts > 0
        assert solver.stats.learned_clauses > 0

    def test_statistics_as_dict_keys(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        solver.solve()
        stats = solver.stats.as_dict()
        assert set(stats) == {"decisions", "propagations", "conflicts",
                              "learned_clauses", "restarts"}


class TestDifferentialFuzz:
    def test_cdcl_agrees_with_brute_force(self):
        rng = random.Random(20250808)
        for trial in range(120):
            num_vars = rng.randint(3, 10)
            num_clauses = rng.randint(2, 4 * num_vars)
            clauses = []
            for _ in range(num_clauses):
                width = rng.randint(1, min(4, num_vars))
                variables = rng.sample(range(1, num_vars + 1), width)
                clauses.append([v if rng.random() < 0.5 else -v
                                for v in variables])
            solver = CDCLSolver()
            for clause in clauses:
                solver.add_clause(list(clause))
            result, model = solver.solve()
            expected = brute_force(num_vars, clauses)
            assert result is (SATResult.SAT if expected else SATResult.UNSAT), \
                (trial, clauses)
            if result is SATResult.SAT:
                for clause in clauses:
                    assert any(model.get(abs(lit), False) == (lit > 0)
                               for lit in clause), (trial, clause, model)

    def test_incremental_assumptions_match_cold_solves(self):
        # One incremental solver queried under assumption literals must
        # agree with a cold solver built per query from the same clauses.
        rng = random.Random(8)
        for _ in range(40):
            num_vars = rng.randint(4, 9)
            clauses = []
            for _ in range(rng.randint(3, 3 * num_vars)):
                width = rng.randint(1, 3)
                variables = rng.sample(range(1, num_vars + 1), width)
                clauses.append([v if rng.random() < 0.5 else -v
                                for v in variables])
            incremental = CDCLSolver()
            for clause in clauses:
                incremental.add_clause(list(clause))
            for _ in range(4):
                assumed = rng.sample(range(1, num_vars + 1), rng.randint(1, 2))
                assumptions = [v if rng.random() < 0.5 else -v for v in assumed]
                cold = CDCLSolver()
                for clause in clauses:
                    cold.add_clause(list(clause))
                for literal in assumptions:
                    cold.add_clause([literal])
                expected, _ = cold.solve()
                observed, _ = incremental.solve(assumptions)
                assert observed is expected, (clauses, assumptions)


class TestIncrementalEquivalence:
    def lane_pairs(self, lanes: int):
        """Real kernel shape: s441's conditional-accumulation lane pairs."""
        pairs = []
        for lane in range(lanes):
            a, b, c, d = (bv_var(f"{n}_{lane}") for n in "abcd")
            scalar = mk(
                TermKind.ITE, mk(TermKind.LT, d, bv_const(0)),
                mk(TermKind.ADD, mk(TermKind.MUL, b, c), a),
                mk(TermKind.ITE, mk(TermKind.EQ, bv_const(0), d),
                   mk(TermKind.ADD, mk(TermKind.MUL, b, b), a),
                   mk(TermKind.ADD, mk(TermKind.MUL, c, c), a)))
            vector = mk(
                TermKind.ADD,
                mk(TermKind.ITE, mk(TermKind.LT, d, bv_const(0)),
                   mk(TermKind.MUL, b, c),
                   mk(TermKind.ITE, mk(TermKind.EQ, bv_const(0), d),
                      mk(TermKind.MUL, b, b), mk(TermKind.MUL, c, c))),
                a)
            pairs.append((scalar, vector))
        return pairs

    def test_batched_solve_matches_per_pair_cold_solves(self):
        # Drive the SAT stage directly (the full checker would prove these
        # by normalization first): one incremental batch over all lanes
        # must agree with a cold per-pair solve.
        pairs = self.lane_pairs(4)
        batched = EquivalenceChecker()._sat_check_batch(pairs)
        assert batched.outcome is EquivalenceOutcome.EQUIVALENT
        for source, target in pairs:
            solvecache.clear_caches()
            cold = EquivalenceChecker()._sat_check(source, target)
            assert cold.outcome is EquivalenceOutcome.EQUIVALENT

    def test_result_carries_sat_statistics(self):
        pairs = self.lane_pairs(2)
        result = EquivalenceChecker()._sat_check_batch(pairs)
        assert result.sat_stats is not None
        assert result.sat_stats.propagations > 0
        # The module-level fleet counters absorbed the same solver's work.
        assert solvecache.stats.propagations == result.sat_stats.propagations

    def test_alpha_canonical_collapses_lane_copies(self):
        pairs = self.lane_pairs(3)
        canonical = {(_alpha_canonical_pair(s, t)[0], _alpha_canonical_pair(s, t)[1])
                     for s, t in pairs}
        assert len(canonical) == 1
        # The variable map translates lane names to first-occurrence order.
        _, _, var_map = _alpha_canonical_pair(*pairs[2])
        assert set(var_map) == {"a_2", "b_2", "c_2", "d_2"}
        assert sorted(var_map.values()) == ["v0", "v1", "v2", "v3"]


class TestSolveCache:
    def pair(self):
        a, b = bv_var("a"), bv_var("b")
        left = mk(TermKind.XOR, mk(TermKind.ADD, a, b), bv_const(3))
        right = mk(TermKind.XOR, mk(TermKind.ADD, b, a), bv_const(3))
        return left, right

    def test_hit_returns_bit_identical_result(self):
        budget = SolverBudget(sat_bitwidth=5)
        first = EquivalenceChecker(budget)._sat_check(*self.pair())
        assert solvecache.stats.cache_misses == 1
        second = EquivalenceChecker(budget)._sat_check(*self.pair())
        assert solvecache.stats.cache_hits == 1
        assert second.outcome is first.outcome
        assert second.method == first.method
        assert second.detail == first.detail
        assert second.counterexample == first.counterexample
        assert second.sat_stats.as_dict() == first.sat_stats.as_dict()

    def test_key_covers_solver_parameters(self):
        EquivalenceChecker(SolverBudget(sat_bitwidth=5))._sat_check(*self.pair())
        EquivalenceChecker(SolverBudget(sat_bitwidth=6))._sat_check(*self.pair())
        # Different bitwidths must not alias: both were misses.
        assert solvecache.stats.cache_hits == 0
        assert solvecache.stats.cache_misses == 2

    def test_persistence_round_trip(self, tmp_path):
        budget = SolverBudget(sat_bitwidth=5)
        first = EquivalenceChecker(budget)._sat_check(*self.pair())
        path = tmp_path / "solvecache.jsonl"
        assert solvecache.save(path) == 1
        solvecache.clear_caches()
        assert solvecache.load(path) == 1
        reloaded = EquivalenceChecker(budget)._sat_check(*self.pair())
        assert solvecache.stats.cache_hits == 1
        assert reloaded.outcome is first.outcome

    def test_load_missing_and_malformed_files(self, tmp_path):
        assert solvecache.load(tmp_path / "absent.jsonl") == 0
        broken = tmp_path / "broken.jsonl"
        broken.write_text('not json\n{"key": 1}\n', encoding="utf-8")
        assert solvecache.load(broken) == 0

    def test_seeding_is_not_solving(self):
        EquivalenceChecker(SolverBudget(sat_bitwidth=5))._sat_check(*self.pair())
        entries = solvecache.export_entries()
        solvecache.clear_caches()
        solvecache.seed_entries(entries)
        assert solvecache.stats.cache_hits == 0
        assert solvecache.stats.cache_misses == 0

    def test_journal_ships_batch_deltas(self):
        mark = solvecache.journal_position()
        EquivalenceChecker(SolverBudget(sat_bitwidth=5))._sat_check(*self.pair())
        entries = solvecache.entries_since(mark)
        assert len(entries) == 1
        key, record = entries[0]
        assert isinstance(key, str) and isinstance(record, dict)


class TestSummaryAggregation:
    def test_solve_cache_hit_rate_property(self):
        summary = CampaignSummary(
            label="x", kernels=1, executed=1, cache_hits=0, cache_misses=1,
            resumed=0, wall_clock_seconds=0.1, workers=1,
            solver={"cache_hits": 3, "cache_misses": 1, "conflicts": 7},
        )
        assert summary.solve_cache_hit_rate == 0.75
        emitted = summary.as_dict()
        assert emitted["solver"]["conflicts"] == 7
        assert emitted["solve_cache_hit_rate"] == 0.75

    def test_empty_solver_counters_not_emitted(self):
        summary = CampaignSummary(
            label="x", kernels=1, executed=1, cache_hits=0, cache_misses=1,
            resumed=0, wall_clock_seconds=0.1, workers=1,
        )
        assert "solver" not in summary.as_dict()
        assert summary.solve_cache_hit_rate == 0.0


class TestTrajectoryPin:
    """The solver makes the recorded moves: same results, statistics and models."""

    @pytest.mark.parametrize("path", sat_replay.corpus_paths(), ids=lambda path: path.name)
    def test_campaign_corpus_replays_identically(self, path):
        corpus = sat_replay.load_corpus(path)
        outcome = sat_replay.replay(corpus)
        recorded = sum(op[0] == "s" for solver in corpus["solvers"] for op in solver["ops"])
        assert outcome.solves == recorded > 0
        assert not outcome.drift, "\n".join(outcome.drift[:3])

    def test_corpus_covers_both_campaigns(self):
        assert {path.name for path in sat_replay.corpus_paths()} >= {
            "avx2.json.gz", "sve256.json.gz"}


def assert_one_live_entry_per_free_variable(solver: CDCLSolver) -> None:
    """Every unassigned variable has exactly one heap entry at its current activity."""
    live = Counter(variable for negated, variable in solver._heap
                   if solver._activity[variable] == -negated)
    for variable in range(1, solver.num_vars + 1):
        if solver._values[variable] is None:
            assert live[variable] == 1, (variable, live[variable])
            assert solver._queued[variable]


class TestDecisionHeap:
    def test_invariant_after_campaign_solves(self):
        corpus = sat_replay.load_corpus(sat_replay.CORPUS_DIR / "avx2.json.gz")
        corpus["solvers"] = corpus["solvers"][:3]
        outcome = sat_replay.replay(corpus, after_solve=assert_one_live_entry_per_free_variable)
        assert outcome.solves >= 3 and not outcome.drift

    def test_invariant_after_incremental_solves(self):
        rng = random.Random(11)
        solver = CDCLSolver()
        for clause in pigeonhole_clauses(6, 5):
            solver.add_clause(clause)
        for _ in range(6):
            solver.solve([rng.choice([-1, 1]) * rng.randint(1, 30)])
            assert_one_live_entry_per_free_variable(solver)
            solver.add_clause([rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(3)])

    def test_invariant_across_activity_rescaling(self):
        solver = CDCLSolver()
        for clause in pigeonhole_clauses(6, 5):
            solver.add_clause(clause)
        solver._activity_increment = 1e99  # the first bumps cross the 1e100 rescale line
        result, _ = solver.solve()
        assert result is SATResult.UNSAT
        assert solver._activity_increment < 1e99
        assert_one_live_entry_per_free_variable(solver)
