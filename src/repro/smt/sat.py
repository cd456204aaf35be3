"""A compact incremental CDCL SAT solver.

The solver implements the standard conflict-driven clause learning loop with
two-watched-literal propagation, first-UIP conflict analysis, lazy max-heap
VSIDS decision ordering, phase saving, Luby restarts and LBD-based learned
clause database reduction.  It is deliberately small but it is a real solver:
the bit-blasted vectorization equivalence queries it receives routinely
contain a few thousand clauses.

The engine is *incremental*: clause database, learned clauses, variable
activities and saved phases persist across :meth:`CDCLSolver.solve` calls, and
``solve(assumptions)`` answers satisfiability under the given assumption
literals without destroying that state.  The equivalence checker exploits this
by asserting every lane/unroll pair of one kernel behind a selector literal in
a single solver instance, so the shared gate structure and lemmas are learned
once instead of per pair.

Literals are encoded as nonzero integers (DIMACS convention: ``-v`` is the
negation of variable ``v``).  Per-call propagation/conflict budgets turn
runaway queries into a ``SATResult.UNKNOWN`` answer, which the verification
layer reports as Inconclusive — the analogue of an Alive2/Z3 timeout.

Because the budgets count solver steps, the steps are part of the contract:
for a given call sequence every ``solve`` makes the same decisions,
propagations, conflicts, learned clauses and restarts and returns the same
model.  Speed-ups must keep those moves — watch-list order, literal order and
the VSIDS tie-break (lowest variable index) included.  The recorded campaign
corpus under ``benchmarks/corpus/sat`` pins them (``tests/test_solver.py``,
``benchmarks/sat_replay.py --check``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush


class SATResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SATStatistics:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "restarts": self.restarts,
        }


def luby(index: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (1-based)."""
    k = 1
    while (1 << (k + 1)) - 1 <= index:
        k += 1
    while index != (1 << k) - 1:
        index -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= index:
            k += 1
    return 1 << (k - 1)


_RESTART_BASE = 128


class CDCLSolver:
    """Incremental conflict-driven clause-learning solver over integer literals."""

    def __init__(self, propagation_budget: int = 2_000_000, conflict_budget: int = 50_000):
        self.num_vars = 0
        self.propagation_budget = propagation_budget
        self.conflict_budget = conflict_budget
        self.stats = SATStatistics()
        # Permanent per-variable state (index 1..num_vars; slot 0 unused).
        self._values: list[bool | None] = [None]  # literal-indexed, size 2n+1
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]  # saved phases; default negative-first
        self._activity_increment = 1.0
        self._heap: list[tuple[float, int]] = []
        # Whether the variable's live heap entry (current activity) is queued.
        self._queued: list[bool] = [False]
        # Clause state.
        self.clauses: list[list[int]] = []  # original (problem) clauses
        self._pending: list[list[int]] = []  # added since the last solve()
        self._learned: list[list[int]] = []
        self._clause_lbd: dict[int, int] = {}
        self._learned_limit = 2000
        # Watch lists of every literal of every known variable (see _grow).
        self._watches: dict[int, list[list[int]]] = {}
        # Search state.
        self._trail: list[int] = []
        self._trail_limits: list[int] = []
        self._decision_level = 0
        self._propagation_head = 0
        self._unsat = False  # permanently UNSAT at the root

    # -- problem construction -----------------------------------------------------

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: list[int]) -> None:
        """Add a clause (list of literals); empty clauses make the problem UNSAT."""
        clause = sorted(set(literals), key=abs)
        seen = set(clause)
        if any(-lit in seen for lit in clause):
            return  # tautology (x OR NOT x)
        for literal in clause:
            if abs(literal) > self.num_vars:
                self.num_vars = abs(literal)
        self.clauses.append(clause)
        self._pending.append(clause)

    def _grow(self) -> None:
        size = self.num_vars + 1
        while len(self._level) < size:
            variable = len(self._level)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._queued.append(True)
            heappush(self._heap, (0.0, variable))
            self._watches[variable] = []
            self._watches[-variable] = []
        # The literal-indexed value array uses Python's negative indexing:
        # _values[lit] is distinct for lit and -lit as long as the list holds
        # 2*num_vars + 1 slots.  Growth must rebuild rather than append —
        # extending the list in place would relocate every negative slot.
        need = 2 * self.num_vars + 1
        if len(self._values) < need:
            old = self._values
            old_vars = (len(old) - 1) // 2
            new = [None] * need
            for variable in range(1, old_vars + 1):
                new[variable] = old[variable]
                new[-variable] = old[-variable]
            self._values = new

    # -- solving ---------------------------------------------------------------------

    def solve(self, assumptions: list[int] | None = None) -> tuple[SATResult, dict[int, bool]]:
        """Solve under ``assumptions``; returns (result, model) with model var -> bool.

        The call is incremental: learned clauses, activities and phases are
        kept for the next call, and the trail is rewound to the root on exit.
        UNSAT under non-empty assumptions means only that this assumption set
        is infeasible, not that the clause database is.
        """
        if self._unsat:
            return SATResult.UNSAT, {}
        for literal in assumptions or []:
            if abs(literal) > self.num_vars:
                self.num_vars = abs(literal)
        self._grow()
        self._backtrack(0)
        if not self._attach_pending():
            self._unsat = True
            return SATResult.UNSAT, {}
        if self._propagate() is not None:
            self._unsat = True
            return SATResult.UNSAT, {}

        assumptions = assumptions or []
        stats = self.stats
        conflict_ceiling = stats.conflicts + self.conflict_budget
        propagation_ceiling = stats.propagations + self.propagation_budget
        restart_index = 1
        conflicts_until_restart = luby(restart_index) * _RESTART_BASE
        values = self._values
        level = self._level
        reason = self._reason
        phase = self._phase
        trail = self._trail
        trail_limits = self._trail_limits
        assumed = len(assumptions)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_until_restart -= 1
                if self._decision_level == 0:
                    self._unsat = True
                    return SATResult.UNSAT, {}
                if self._decision_level <= assumed:
                    # The conflict depends on no real decision, only on the
                    # assumption prefix: UNSAT under these assumptions.
                    self._backtrack(0)
                    return SATResult.UNSAT, {}
                if stats.conflicts > conflict_ceiling:
                    self._backtrack(0)
                    return SATResult.UNKNOWN, {}
                learned, backtrack_level, lbd = self._analyze(conflict)
                # Backtrack to the asserting level even when that is below the
                # assumption prefix — the decision loop re-assumes the tail, and
                # a unit lemma lands permanently at level 0 (it is implied by
                # the clause database alone, not by the assumptions).
                self._backtrack(backtrack_level)
                self._learn(learned, lbd)
                continue
            if conflicts_until_restart <= 0:
                stats.restarts += 1
                restart_index += 1
                conflicts_until_restart = luby(restart_index) * _RESTART_BASE
                self._backtrack(0)
                if len(self._learned) > self._learned_limit:
                    self._reduce_learned()
                continue
            if stats.propagations > propagation_ceiling:
                self._backtrack(0)
                return SATResult.UNKNOWN, {}
            if self._decision_level < assumed:
                literal = assumptions[self._decision_level]
                value = values[literal]
                if value is False:
                    self._backtrack(0)
                    return SATResult.UNSAT, {}
                trail_limits.append(len(trail))
                self._decision_level += 1
                if value is not None:
                    continue
            else:
                literal = self._pick_branch()
                if literal is None:
                    model = {var: values[var] for var in range(1, self.num_vars + 1)
                             if values[var] is not None}
                    self._backtrack(0)
                    return SATResult.SAT, model
                stats.decisions += 1
                trail_limits.append(len(trail))
                self._decision_level += 1
            # Assign the decision (or assumption) literal with no reason.
            variable = literal if literal > 0 else -literal
            values[literal] = True
            values[-literal] = False
            level[variable] = self._decision_level
            reason[variable] = None
            phase[variable] = literal > 0
            trail.append(literal)

    # -- clause attachment -------------------------------------------------------------

    def _attach_pending(self) -> bool:
        """Attach clauses added since the last solve; False on a root conflict.

        Runs at decision level 0, so any assigned literal is permanently
        assigned and can be simplified out of the incoming clause.
        """
        values = self._values
        for clause in self._pending:
            live = [lit for lit in clause if values[lit] is not False]
            if any(values[lit] is True for lit in live):
                continue
            if not live:
                return False
            if len(live) == 1:
                self._enqueue(live[0], clause)
                continue
            self._watches[live[0]].append(live)
            self._watches[live[1]].append(live)
        self._pending.clear()
        return True

    # -- internal state ---------------------------------------------------------------

    def _enqueue(self, literal: int, reason: list[int] | None) -> None:
        """Make ``literal`` true at the current level.

        The hot paths (propagation and the decision loop) inline this.
        """
        variable = literal if literal > 0 else -literal
        self._values[literal] = True
        self._values[-literal] = False
        self._level[variable] = self._decision_level
        self._reason[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.

        Each watched clause keeps its two watches in positions 0 and 1.  The
        assignment of an implied literal is inlined, and ternary clauses —
        most of the bit-blasted gate clauses — test their one replacement
        candidate without a loop; both make exactly the moves of the generic
        path.
        """
        values = self._values
        trail = self._trail
        watches = self._watches
        level = self._level
        reason = self._reason
        phase = self._phase
        decision_level = self._decision_level
        start = head = self._propagation_head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watching = watches[falsified]
            if not watching:
                continue
            index = 0
            size = len(watching)
            while index < size:
                clause = watching[index]
                # Ensure the falsified literal is in position 1.
                first = clause[0]
                if first == falsified:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                value = values[first]
                if value:
                    index += 1
                    continue
                # Look for a replacement watch.
                length = len(clause)
                if length == 3:
                    other = clause[2]
                    if values[other] is not False:
                        clause[1] = other
                        clause[2] = falsified
                        watches[other].append(clause)
                        size -= 1
                        watching[index] = watching[size]
                        watching.pop()
                        continue
                elif length > 3:
                    for other in clause[2:]:
                        if values[other] is not False:
                            break
                    else:
                        other = 0
                    if other:
                        clause[1] = other
                        clause[clause.index(other, 2)] = falsified
                        watches[other].append(clause)
                        size -= 1
                        watching[index] = watching[size]
                        watching.pop()
                        continue
                # No replacement: clause is unit or conflicting.
                if value is False:
                    self._propagation_head = head
                    self.stats.propagations += head - start
                    return clause
                variable = first if first > 0 else -first
                values[first] = True
                values[-first] = False
                level[variable] = decision_level
                reason[variable] = clause
                phase[variable] = first > 0
                trail.append(first)
                index += 1
        self._propagation_head = head
        self.stats.propagations += head - start
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP analysis; returns (learned clause, backtrack level, LBD).

        Every variable met is VSIDS-bumped in place.  All of them are
        assigned, so a bump only marks the variable's heap entry stale;
        :meth:`_backtrack` re-queues it with the new activity once it is
        unassigned.
        """
        learned: list[int] = []
        seen = bytearray(self.num_vars + 1)
        level = self._level
        reason = self._reason
        activity = self._activity
        queued = self._queued
        increment = self._activity_increment
        counter = 0
        literal = None
        clause = conflict
        trail = self._trail
        trail_index = len(trail) - 1
        current_level = self._decision_level

        while True:
            for lit in clause:
                variable = lit if lit > 0 else -lit
                if not seen[variable] and level[variable] > 0:
                    seen[variable] = 1
                    bumped = activity[variable] + increment
                    activity[variable] = bumped
                    queued[variable] = False
                    if bumped > 1e100:
                        increment = self._rescale_activities(increment)
                    increment *= 1.05
                    if level[variable] == current_level:
                        counter += 1
                    else:
                        learned.append(lit)
            # Find the next literal on the trail at the current level.
            while True:
                literal = trail[trail_index]
                trail_index -= 1
                if seen[literal if literal > 0 else -literal]:
                    break
            counter -= 1
            if counter == 0:
                break
            clause = reason[literal if literal > 0 else -literal] or []
        self._activity_increment = increment
        learned.append(-literal)
        self.stats.learned_clauses += 1
        if len(learned) == 1:
            return learned, 0, 1
        backtrack_level = max(level[lit if lit > 0 else -lit] for lit in learned[:-1])
        lbd = len({level[lit if lit > 0 else -lit] for lit in learned})
        return learned, backtrack_level, lbd

    def _rescale_activities(self, increment: float) -> float:
        """Scale every activity (and the increment) down by 1e-100; rebuild the heap."""
        activity = self._activity
        for index in range(1, self.num_vars + 1):
            activity[index] *= 1e-100
        values = self._values
        queued = self._queued
        heap = []
        for variable in range(1, self.num_vars + 1):
            free = values[variable] is None
            queued[variable] = free
            if free:
                heap.append((-activity[variable], variable))
        heapify(heap)
        self._heap = heap
        return increment * 1e-100

    def _backtrack(self, target: int) -> None:
        if self._decision_level <= target:
            return
        limit = self._trail_limits[target]
        del self._trail_limits[target:]
        values = self._values
        reason = self._reason
        trail = self._trail
        heap = self._heap
        activity = self._activity
        queued = self._queued
        for literal in reversed(trail[limit:]):
            variable = literal if literal > 0 else -literal
            values[literal] = None
            values[-literal] = None
            reason[variable] = None
            if not queued[variable]:
                queued[variable] = True
                heappush(heap, (-activity[variable], variable))
        del trail[limit:]
        self._decision_level = target
        self._propagation_head = limit

    def _learn(self, clause: list[int], lbd: int) -> None:
        # Put the asserting literal first so it becomes unit immediately.
        asserting = clause[-1]
        ordered = [asserting] + clause[:-1]
        if len(ordered) > 1:
            self._watches[ordered[0]].append(ordered)
            self._watches[ordered[1]].append(ordered)
            self._learned.append(ordered)
            self._clause_lbd[id(ordered)] = lbd
        self._enqueue(asserting, ordered)

    def _reduce_learned(self) -> None:
        """Drop the worst (highest-LBD) half of the learned clause database.

        Called at a restart, so the trail holds only level-0 assignments;
        clauses acting as level-0 reasons and glue clauses (LBD <= 2) are kept.
        """
        protected = {id(reason) for reason in self._reason if reason is not None}
        lbd = self._clause_lbd
        ranked = sorted(self._learned, key=lambda c: lbd.get(id(c), 1), reverse=True)
        doomed: set[int] = set()
        for clause in ranked[: len(ranked) // 2]:
            clause_id = id(clause)
            if lbd.get(clause_id, 1) <= 2 or clause_id in protected:
                continue
            doomed.add(clause_id)
        if not doomed:
            self._learned_limit = int(self._learned_limit * 1.5)
            return
        self._learned = [c for c in self._learned if id(c) not in doomed]
        for clause_id in doomed:
            lbd.pop(clause_id, None)
        for literal, watching in self._watches.items():
            if any(id(c) in doomed for c in watching):
                self._watches[literal] = [c for c in watching if id(c) not in doomed]
        self._learned_limit = int(self._learned_limit * 1.1)

    def _pick_branch(self) -> int | None:
        """Highest-activity unassigned variable (lowest index on ties), in its saved phase.

        The heap is lazy: a bump leaves the variable's old entry in place, so
        entries whose recorded activity no longer matches the variable's
        current activity are stale and discarded on pop.  ``_queued[v]`` says
        whether ``v`` has its one live entry (the one carrying its current
        activity) in the heap; every unassigned variable does, which makes
        the pick the same as a scan over all unassigned variables.
        """
        heap = self._heap
        values = self._values
        activity = self._activity
        queued = self._queued
        while heap:
            negated, variable = heappop(heap)
            if activity[variable] != -negated:
                continue
            queued[variable] = False
            if values[variable] is not None:
                continue
            return variable if self._phase[variable] else -variable
        return None
