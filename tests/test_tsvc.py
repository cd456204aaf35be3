"""Tests for the TSVC dataset: integrity, parseability and executability."""

import random

import pytest

from repro.interp.interpreter import run_function
from repro.interp.randominit import InputSpec, make_test_vector
from repro.tsvc import all_kernel_names, get_kernel, kernel_count, kernels_by_class, load_kernel, load_suite


class TestRegistry:
    def test_suite_size_matches_paper_scale(self):
        # The paper uses the 149 integer loops of TSVC; the re-expressed suite
        # stays within a few kernels of that count.
        assert kernel_count() >= 140

    def test_names_are_unique_and_sorted_access_works(self):
        names = all_kernel_names()
        assert len(names) == len(set(names))
        assert get_kernel(names[0]).name == names[0]

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            get_kernel("does_not_exist")

    def test_paper_example_kernels_present(self):
        for name in ("s212", "s124", "s274", "s278", "s291", "s453", "vsumr"):
            assert get_kernel(name) is not None

    def test_kernels_by_class_is_consistent(self):
        reductions = kernels_by_class("reductions")
        assert any(k.name == "vsumr" for k in reductions)
        assert all(k.tsvc_class == "reductions" for k in reductions)

    def test_every_kernel_has_description(self):
        for kernel in load_suite():
            assert kernel.spec.description
            assert kernel.spec.tsvc_class

    def test_every_spelling_of_a_kernel_loads_one_object(self):
        assert load_kernel("s000") is load_kernel("s000", "int32") \
            is load_kernel("s000", dtype="int32") is load_suite(["s000"])[0]
        assert load_kernel("s000_i16") is load_kernel("s000", "int16") \
            is load_kernel("s000", dtype="int16") is load_suite(["s000"], "int16")[0]
        assert load_kernel("s000_i16") is not load_kernel("s000")


class TestKernelSources:
    def test_every_kernel_parses_and_analyzes(self):
        for kernel in load_suite():
            assert kernel.function.name == kernel.name
            assert kernel.features is not None

    def test_every_kernel_declares_a_trip_count_parameter(self):
        for kernel in load_suite():
            scalar_params = [p.name for p in kernel.function.params if not p.param_type.is_pointer]
            assert "n" in scalar_params, f"{kernel.name} has no n parameter"

    def test_every_kernel_executes_on_random_inputs(self):
        rng = random.Random(1234)
        for kernel in load_suite():
            spec = InputSpec.from_function(kernel.function)
            vector = make_test_vector(spec, 16, rng)
            result = run_function(kernel.function, vector.arrays, vector.scalars)
            assert result.steps > 0

    def test_s212_matches_paper_figure_1(self):
        source = load_kernel("s212").source
        assert "a[i] *= c[i]" in source
        assert "b[i] += a[i + 1] * d[i]" in source

    def test_s453_matches_paper_section_44(self):
        source = load_kernel("s453").source
        assert "s += 2" in source
        assert "a[i] = s * b[i]" in source

    def test_loading_is_cached(self):
        assert load_kernel("s000") is load_kernel("s000")
