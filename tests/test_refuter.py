"""Batched concrete evaluation and refutation, and exact truncating division.

* ``evaluate_many`` must equal per-assignment ``evaluate`` on generated term
  DAGs over every ``TermKind`` (poison, ITE, division and remainder by zero,
  shift counts at or past the width) at widths 6, 16, 32 and 64;
* the batched refuter must return the same first refuting assignment as the
  sample-major reference below, which tries each sample on every pair in
  turn;
* division and remainder truncate exactly at 64 bits, in the term evaluator
  and the interpreter alike.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfront.cparser import parse_function
from repro.interp.interpreter import run_function
from repro.lanetypes import trunc_div
from repro.smt.equiv import EquivalenceChecker, SolverBudget, _boundary_values
from repro.smt.terms import (
    Term,
    TermKind,
    bv_var,
    collect_variables,
    evaluate,
    evaluate_many,
    poison,
    to_signed,
    to_unsigned,
)

WIDTHS = (6, 16, 32, 64)
NAMES = ("a", "b", "c")
ARITY = {TermKind.CONST: 0, TermKind.VAR: 0, TermKind.POISON: 0,
         TermKind.NEG: 1, TermKind.NOT: 1, TermKind.ABS: 1, TermKind.ITE: 3}
COMPOUND = [kind for kind in TermKind if ARITY.get(kind, 2) > 0]


def word(bits: int) -> st.SearchStrategy[int]:
    """Words biased to the edges: boundaries, shift counts around the width, any value."""
    edges = sorted({value % (1 << bits) for value in _boundary_values(bits)}
                   | {bits - 1, bits, bits + 1, 2 * bits})
    return st.one_of(st.sampled_from(edges), st.integers(0, (1 << bits) - 1))


@st.composite
def term_dags(draw, bits: int, size: int = 12) -> list[Term]:
    """A pool of raw (unsimplified) nodes; later nodes share earlier ones."""
    pool: list[Term] = [bv_var(name) for name in NAMES]
    pool.append(Term(TermKind.CONST, value=0))
    pool.append(Term(TermKind.CONST, value=draw(word(bits))))
    pool.append(poison("test"))
    for _ in range(draw(st.integers(1, size))):
        kind = draw(st.sampled_from(COMPOUND))
        args = tuple(draw(st.sampled_from(pool)) for _ in range(ARITY.get(kind, 2)))
        pool.append(Term(kind, args))
    return pool


def assignments(bits: int, count: int) -> st.SearchStrategy[list[dict[str, int]]]:
    values = st.one_of(word(bits), st.integers(0, (1 << (bits + 3)) - 1))  # masked on read
    return st.lists(st.fixed_dictionaries({name: values for name in NAMES}),
                    min_size=1, max_size=count)


def reference_refute(checker: EquivalenceChecker, pairs) -> dict[str, int] | None:
    """Sample-major refutation: each sample is tried on every pair in turn."""
    variables: set[str] = set()
    for source, target in pairs:
        variables |= collect_variables(source) | collect_variables(target)
    rng = random.Random(checker.seed)
    bits = checker.model_bits
    boundaries = _boundary_values(bits)
    for sample in range(checker.budget.random_samples):
        assignment: dict[str, int] = {}
        for name in sorted(variables):
            if sample < len(boundaries):
                assignment[name] = to_unsigned(boundaries[sample] + rng.randint(-2, 2), bits)
            elif sample % 3 == 0:
                assignment[name] = to_unsigned(rng.randint(-10, 10), bits)
            else:
                assignment[name] = rng.getrandbits(bits)
        for source, target in pairs:
            if evaluate(source, assignment, bits) != evaluate(target, assignment, bits):
                return assignment
    return None


class TestEvaluateMany:
    @pytest.mark.parametrize("bits", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_assignment_evaluate(self, bits, data):
        pool = data.draw(term_dags(bits))
        samples = data.draw(assignments(bits, 6))
        memo: dict[int, list[int]] = {}  # shared across the pool, as the refuter does
        for node in reversed(pool):
            expected = [evaluate(node, sample, bits) for sample in samples]
            assert evaluate_many(node, samples, bits, memo) == expected, node

    def test_every_kind_is_generated(self):
        covered = {kind for kind in TermKind if ARITY.get(kind, 2) > 0} | {
            TermKind.CONST, TermKind.VAR, TermKind.POISON}
        assert covered == set(TermKind)

    def test_unassigned_variable_raises(self):
        with pytest.raises(KeyError):
            evaluate_many(bv_var("a"), [{"a": 1}, {}])


class TestBatchedRefuter:
    @pytest.mark.parametrize("bits", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_first_refutation_as_sample_major(self, bits, data):
        pool = data.draw(term_dags(bits, size=8))
        pairs = []
        for _ in range(data.draw(st.integers(1, 4))):
            source = data.draw(st.sampled_from(pool))
            other = data.draw(st.sampled_from(pool))
            shape = data.draw(st.sampled_from(["equal", "any", "rare"]))
            if shape == "equal":
                target = source
            elif shape == "any":
                target = other
            else:
                # Differs only where one variable hits one value, so the first
                # refuting sample lands anywhere in the battery, or nowhere.
                hit = Term(TermKind.EQ, (bv_var(data.draw(st.sampled_from(NAMES))),
                                         Term(TermKind.CONST, value=data.draw(word(bits)))))
                target = Term(TermKind.ITE, (hit, other, source))
            pairs.append((source, target))
        checker = EquivalenceChecker(
            SolverBudget(random_samples=data.draw(st.integers(1, 48))),
            seed=data.draw(st.integers(0, 9)), model_bits=bits)
        assert checker._batched_random_refute(pairs) == reference_refute(checker, pairs)

    def test_late_refutation_is_found(self):
        # The pair differs only where ``a`` takes the value sample 30 drew, so
        # every earlier sample that does not draw it must be passed over.
        checker = EquivalenceChecker(model_bits=32)
        late = checker._samples(["a"])[30]["a"]
        a = bv_var("a")
        hit = Term(TermKind.EQ, (a, Term(TermKind.CONST, value=late)))
        pairs = [(a, a), (a, Term(TermKind.ITE, (hit, Term(TermKind.NOT, (a,)), a)))]
        found = checker._batched_random_refute(pairs)
        assert found == {"a": late}
        assert found == reference_refute(checker, pairs)


class TestExactDivision:
    @pytest.mark.parametrize("numerator, denominator, quotient", [
        (7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (0, 5, 0),
        (2**62 + 1, 1, 2**62 + 1), (-(2**63), 1, -(2**63)),
        (2**63 - 1, 3, (2**63 - 1) // 3), (-(2**63 - 1), 3, -((2**63 - 1) // 3)),
    ])
    def test_trunc_div(self, numerator, denominator, quotient):
        assert trunc_div(numerator, denominator) == quotient

    def test_float_division_was_inexact_here(self):
        # The case the helper exists for: a float quotient loses the low bit.
        assert int((2**62 + 1) / 1) != 2**62 + 1

    @pytest.mark.parametrize("fn", [evaluate, lambda t, a, b: evaluate_many(t, [a], b)[0]])
    def test_term_division_at_64_bits(self, fn):
        a, b = bv_var("a"), bv_var("b")
        div, rem = Term(TermKind.DIV, (a, b)), Term(TermKind.REM, (a, b))
        cases = [(2**62 + 1, 1), (2**62 + 1, 3), (-(2**62) - 7, 5), (2**63 - 1, -2),
                 (-(2**63), -1)]
        for x, y in cases:
            env = {"a": to_unsigned(x, 64), "b": to_unsigned(y, 64)}
            quotient = abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)
            assert to_signed(fn(div, env, 64), 64) == to_signed(quotient, 64), (x, y)
            assert to_signed(fn(rem, env, 64), 64) == x - quotient * y, (x, y)

    def test_term_division_unchanged_at_32_bits(self):
        a, b = bv_var("a"), bv_var("b")
        div, rem = Term(TermKind.DIV, (a, b)), Term(TermKind.REM, (a, b))
        rng = random.Random(5)
        for _ in range(500):
            x, y = rng.randint(-(2**31), 2**31 - 1), rng.randint(-(2**31), 2**31 - 1) or 1
            env = {"a": to_unsigned(x, 32), "b": to_unsigned(y, 32)}
            assert evaluate(div, env, 32) == to_unsigned(int(x / y), 32)
            assert evaluate(rem, env, 32) == to_unsigned(x - int(x / y) * y, 32)

    def test_interpreter_division_at_int64(self):
        source = """
        void f(int64_t n, int64_t *a, int64_t *b, int64_t *q, int64_t *r) {
            for (int64_t i = 0; i < n; i++) { q[i] = a[i] / b[i]; r[i] = a[i] % b[i]; }
        }"""
        a = [2**62 + 1, 2**62 + 1, -(2**62) - 7, 2**63 - 1]
        b = [1, 3, 5, -2]
        outputs = run_function(parse_function(source),
                               {"a": a, "b": b, "q": [0] * 4, "r": [0] * 4}, {"n": 4}).outputs()
        quotients = [trunc_div(x, y) for x, y in zip(a, b)]
        assert outputs["q"] == quotients
        assert outputs["r"] == [x - q * y for x, y, q in zip(a, b, quotients)]
        assert outputs["q"][0] == 2**62 + 1
