"""Tests for the memory model, the interpreter and checksum-based testing."""

import pytest

from repro.cfront.cparser import parse_function
from repro.errors import CompileError, UndefinedBehaviorError
from repro.interp.checksum import ChecksumOutcome, checksum_testing
from repro.interp.memory import Memory
from repro.lanetypes import INT16, INT64
from repro.interp.interpreter import run_function
from repro.interp.randominit import InputSpec, make_test_vector
import random


class TestMemory:
    def test_load_store_in_bounds(self):
        memory = Memory()
        memory.allocate("a", 4, [1, 2, 3, 4])
        value, poison = memory.load("a", 2)
        assert value == 3 and not poison
        memory.store("a", 2, 99)
        assert memory.load("a", 2)[0] == 99

    def test_guard_zone_read_records_ub_but_does_not_crash(self):
        memory = Memory()
        memory.allocate("a", 4, [1, 2, 3, 4], guard=8)
        _value, poison = memory.load("a", 5)
        assert poison
        assert memory.has_ub
        assert memory.ub_events[0].kind == "oob-read"

    def test_far_out_of_bounds_raises(self):
        memory = Memory()
        memory.allocate("a", 4, guard=4)
        with pytest.raises(UndefinedBehaviorError):
            memory.load("a", 100)

    def test_strict_mode_raises_on_guard_access(self):
        memory = Memory(strict=True)
        memory.allocate("a", 4, guard=8)
        with pytest.raises(UndefinedBehaviorError):
            memory.load("a", 6)

    def test_checksum_changes_with_content(self):
        memory = Memory()
        memory.allocate("a", 4, [1, 2, 3, 4])
        before = memory.checksum()
        memory.store("a", 0, 42)
        assert memory.checksum() != before

    def test_allocation_wraps_to_the_lane_width(self):
        memory = Memory(dtype=INT16)
        region = memory.allocate("a", 4, [40000, -40000, 32768, 5], guard=2)
        assert region.data == [-25536, 25536, -32768, 5, 0, 0]
        memory = Memory(dtype=INT64)
        region = memory.allocate("a", 3, [2**63, -2**63 - 1, 2**64 + 7], guard=1)
        assert region.data == [-2**63, 2**63 - 1, 7, 0]

    def test_allocation_truncates_a_long_prefix_and_pads_a_short_one(self):
        memory = Memory()
        assert memory.allocate("long", 2, [1, 2, 3, 4], guard=3).data == [1, 2, 0, 0, 0]
        assert memory.allocate("short", 3, [9], guard=1).data == [9, 0, 0, 0]
        assert memory.allocate("empty", 3, [], guard=1).data == [0, 0, 0, 0]
        assert memory.allocate("none", 3, guard=1).data == [0, 0, 0, 0]

    def test_allocation_poisons_exactly_the_guard_zone(self):
        memory = Memory()
        region = memory.allocate("a", 3, [7, 8, 9, 10], guard=2)
        assert region.poison == [False, False, False, True, True]
        assert memory.load("a", 3) == (0, True)
        assert [event.kind for event in memory.ub_events] == ["oob-read"]


class TestInterpreter:
    def run(self, source, arrays, scalars):
        return run_function(parse_function(source), arrays, scalars)

    def test_simple_loop(self):
        src = "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) a[i] = b[i] + 1; }"
        result = self.run(src, {"a": [0] * 8, "b": list(range(8))}, {"n": 8})
        assert result.outputs()["a"] == [i + 1 for i in range(8)]

    def test_wraparound_arithmetic(self):
        src = "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = a[i] * a[i]; }"
        result = self.run(src, {"a": [2**17] * 2}, {"n": 2})
        assert result.outputs()["a"][0] == (2**34) % (2**32) - 0  # wraps to a positive value

    def test_compound_assignment_and_division_semantics(self):
        src = "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] /= b[i]; } }"
        result = self.run(src, {"a": [-7, 7], "b": [2, 2]}, {"n": 2})
        assert result.outputs()["a"] == [-3, 3]  # C truncates toward zero

    def test_goto_control_flow(self):
        src = """
        void f(int n, int *a, int *b) {
            for (int i = 0; i < n; i++) {
                if (a[i] > 0) { goto L20; }
                b[i] = 1;
                goto L30;
                L20:
                b[i] = 2;
                L30:
                ;
            }
        }
        """
        result = self.run(src, {"a": [5, -5, 0, 3], "b": [0] * 4}, {"n": 4})
        assert result.outputs()["b"] == [2, 1, 1, 2]

    def test_break_and_scalar_state(self):
        src = """
        void f(int n, int *a, int *out) {
            int count = 0;
            for (int i = 0; i < n; i++) {
                if (a[i] < 0) { break; }
                count++;
            }
            out[0] = count;
        }
        """
        result = self.run(src, {"a": [1, 2, -1, 4], "out": [0]}, {"n": 4})
        assert result.outputs()["out"] == [2]

    def test_vector_intrinsics_execute(self):
        src = """
        void f(int n, int *a, int *b) {
            for (int i = 0; i <= n - 8; i += 8) {
                __m256i va = _mm256_loadu_si256((__m256i*)&a[i]);
                __m256i vb = _mm256_loadu_si256((__m256i*)&b[i]);
                __m256i vs = _mm256_add_epi32(va, vb);
                _mm256_storeu_si256((__m256i*)&a[i], vs);
            }
        }
        """
        result = self.run(src, {"a": list(range(8)), "b": [10] * 8}, {"n": 8})
        assert result.outputs()["a"] == [i + 10 for i in range(8)]
        assert result.op_counts["vector_op"] > 0

    def test_unknown_call_is_compile_error(self):
        src = "void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = foo(a[i]); }"
        with pytest.raises(CompileError):
            self.run(src, {"a": [1, 2]}, {"n": 2})

    def test_missing_parameter_is_compile_error(self):
        src = "void f(int n, int *a) { a[0] = n; }"
        with pytest.raises(CompileError):
            run_function(parse_function(src), {"a": [0]}, {})

    def test_infinite_loop_hits_step_budget(self):
        src = "void f(int n, int *a) { for (int i = 0; i < 10; i += 0) a[0] = i; }"
        from repro.errors import InterpreterError
        with pytest.raises(InterpreterError):
            run_function(parse_function(src), {"a": [0]}, {"n": 1}, max_steps=1000)


class TestChecksumTesting:
    SCALAR = """
    void s(int n, int *a, int *b) {
        for (int i = 0; i < n; i++) a[i] = b[i] * 3;
    }
    """

    def test_identical_semantics_is_plausible(self):
        vectorized = self.SCALAR.replace("void s", "void s")
        report = checksum_testing(self.SCALAR, vectorized)
        assert report.outcome is ChecksumOutcome.PLAUSIBLE
        assert report.tests_run >= 3

    def test_wrong_constant_is_not_equivalent(self):
        wrong = self.SCALAR.replace("* 3", "* 4")
        report = checksum_testing(self.SCALAR, wrong)
        assert report.outcome is ChecksumOutcome.NOT_EQUIVALENT
        assert report.mismatches
        assert "differs" in report.feedback_text()

    def test_parse_error_is_cannot_compile(self):
        report = checksum_testing(self.SCALAR, "void broken(int n { }")
        assert report.outcome is ChecksumOutcome.CANNOT_COMPILE

    def test_unknown_intrinsic_is_cannot_compile(self):
        bad = """
        void s(int n, int *a, int *b) {
            for (int i = 0; i < n; i++) a[i] = _mm256_bogus(b[i]);
        }
        """
        report = checksum_testing(self.SCALAR, bad)
        assert report.outcome is ChecksumOutcome.CANNOT_COMPILE

    def test_feedback_contains_sample_arrays_on_mismatch(self):
        wrong = self.SCALAR.replace("* 3", "+ 1")
        report = checksum_testing(self.SCALAR, wrong)
        text = report.feedback_text()
        assert "Example input arrays" in text
        assert "Expected (scalar) outputs" in text


class TestRandomInit:
    def test_index_arrays_stay_in_range(self):
        spec = InputSpec(array_params=["a", "indx"], scalar_params=["n"])
        vector = make_test_vector(spec, 16, random.Random(0))
        assert all(0 <= v < 16 for v in vector.arrays["indx"])

    def test_trip_count_assigned_to_n(self):
        spec = InputSpec(array_params=["a"], scalar_params=["n", "k"])
        vector = make_test_vector(spec, 24, random.Random(0))
        assert vector.scalars["n"] == 24
        assert 1 <= vector.scalars["k"] <= 4
