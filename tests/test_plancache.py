"""Tests for the content-addressed parse/plan cache behind the hot path."""

import pytest

from repro.cfront.cparser import parse_function
from repro.vectorizer import plancache
from repro.vectorizer.planner import RejectionReason

SRC = """
void add1(int n, int *a, int *b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
    }
}
"""

SRC_OTHER = """
void sub1(int n, int *a, int *b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] - 1;
    }
}
"""

#: A loop-carried flow dependence: every target's planner rejects it, so
#: cached_vectorize returns (and must cache) None.
SRC_RECURRENCE = """
void recur(int n, int *a) {
    for (int i = 1; i < n; i++) {
        a[i] = a[i - 1] + 1;
    }
}
"""

BAD_SRC = "void broken(int n { this is not C"


@pytest.fixture(autouse=True)
def fresh_caches():
    plancache.clear_caches()
    yield
    plancache.clear_caches()
    plancache.set_capacity(plancache.DEFAULT_CAPACITY)


class TestParseCache:
    def test_first_parse_misses_then_hits(self):
        first = plancache.cached_parse(SRC)
        assert plancache.stats.parse_misses == 1
        assert plancache.stats.parse_hits == 0
        second = plancache.cached_parse(SRC)
        assert second is first
        assert plancache.stats.parse_hits == 1
        assert plancache.stats.parse_misses == 1

    def test_distinct_sources_get_distinct_entries(self):
        a = plancache.cached_parse(SRC)
        b = plancache.cached_parse(SRC_OTHER)
        assert a is not b
        assert a.name == "add1" and b.name == "sub1"
        assert plancache.stats.parse_misses == 2

    def test_parse_failure_is_cached_and_reraised(self):
        with pytest.raises(Exception) as first:
            plancache.cached_parse(BAD_SRC)
        assert plancache.stats.parse_misses == 1
        with pytest.raises(Exception) as second:
            plancache.cached_parse(BAD_SRC)
        # The very same exception instance comes back: messages stay stable.
        assert second.value is first.value
        assert plancache.stats.parse_hits == 1

    def test_seed_parse_turns_reparse_into_a_hit(self):
        func = parse_function(SRC)
        plancache.seed_parse(SRC, func)
        got = plancache.cached_parse(SRC)
        assert got is func
        assert plancache.stats.parse_hits == 1
        assert plancache.stats.parse_misses == 0

    def test_seed_parse_does_not_replace_existing_entry(self):
        first = plancache.cached_parse(SRC)
        other = parse_function(SRC)
        plancache.seed_parse(SRC, other)
        assert plancache.cached_parse(SRC) is first

    def test_capacity_overflow_clears_instead_of_growing(self):
        plancache.set_capacity(1)
        first = plancache.cached_parse(SRC)
        plancache.cached_parse(SRC_OTHER)  # overflow: cache reset to 1 entry
        again = plancache.cached_parse(SRC)
        assert again is not first
        assert plancache.stats.parse_misses == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            plancache.set_capacity(0)


class TestFingerprint:
    def test_salted_by_target_and_epilogue(self):
        base = plancache.plan_fingerprint(SRC, "avx2", "scalar")
        assert plancache.plan_fingerprint(SRC, "avx2", "scalar") == base
        assert plancache.plan_fingerprint(SRC, "sse4", "scalar") != base
        assert plancache.plan_fingerprint(SRC, "avx2", "masked") != base
        assert plancache.plan_fingerprint(SRC_OTHER, "avx2", "scalar") != base

    def test_default_target_resolves_like_explicit(self):
        assert (plancache.plan_fingerprint(SRC, None)
                == plancache.plan_fingerprint(SRC, "avx2"))


class TestPlanCache:
    def test_plan_hit_returns_shared_plan(self):
        first = plancache.cached_plan(SRC, target="avx2")
        second = plancache.cached_plan(SRC, target="avx2")
        assert second is first
        assert first.feasible
        assert plancache.stats.plan_misses == 1
        assert plancache.stats.plan_hits == 1

    def test_targets_never_share_a_plan(self):
        avx2 = plancache.cached_plan(SRC, target="avx2")
        sse4 = plancache.cached_plan(SRC, target="sse4")
        assert avx2 is not sse4
        assert avx2.target.lanes == 8 and sse4.target.lanes == 4
        assert plancache.stats.plan_misses == 2

    def test_epilogues_never_share_a_plan(self):
        scalar = plancache.cached_plan(SRC, target="sve128", epilogue="scalar")
        predicated = plancache.cached_plan(SRC, target="sve128",
                                           epilogue="predicated")
        assert scalar is not predicated
        assert scalar.epilogue == "scalar"
        assert predicated.epilogue == "predicated"

    def test_rejection_plans_are_cached_too(self):
        first = plancache.cached_plan(SRC_RECURRENCE, target="avx2")
        assert not first.feasible
        assert first.reason is RejectionReason.LOOP_CARRIED_FLOW
        assert plancache.cached_plan(SRC_RECURRENCE, target="avx2") is first
        assert plancache.stats.plan_hits == 1


class TestVectorizeCache:
    def test_vectorize_hit_returns_shared_result(self):
        first = plancache.cached_vectorize(SRC, target="avx2")
        second = plancache.cached_vectorize(SRC, target="avx2")
        assert first is not None
        assert second is first
        assert plancache.stats.vectorize_misses == 1
        assert plancache.stats.vectorize_hits == 1

    def test_infeasible_none_is_cached(self):
        assert plancache.cached_vectorize(SRC_RECURRENCE, target="avx2") is None
        assert plancache.cached_vectorize(SRC_RECURRENCE, target="avx2") is None
        assert plancache.stats.vectorize_misses == 1
        assert plancache.stats.vectorize_hits == 1

    def test_target_salting_produces_distinct_code(self):
        avx2 = plancache.cached_vectorize(SRC, target="avx2")
        neon = plancache.cached_vectorize(SRC, target="neon")
        assert avx2 is not None and neon is not None
        assert avx2.source != neon.source
        assert "_mm256_" in avx2.source
        assert "vld1q_s32" in neon.source

    def test_epilogue_salting_produces_distinct_code(self):
        scalar = plancache.cached_vectorize(SRC, target="sve128",
                                            epilogue="scalar")
        predicated = plancache.cached_vectorize(SRC, target="sve128",
                                               epilogue="predicated")
        assert scalar is not None and predicated is not None
        assert scalar.source != predicated.source
        assert "whilelt" in predicated.source


class TestStats:
    def test_clear_resets_counters(self):
        plancache.cached_parse(SRC)
        plancache.cached_plan(SRC)
        plancache.clear_caches()
        assert plancache.stats.as_dict() == {
            "parse_hits": 0, "parse_misses": 0,
            "plan_hits": 0, "plan_misses": 0,
            "vectorize_hits": 0, "vectorize_misses": 0,
        }

    def test_as_dict_reflects_activity(self):
        plancache.cached_parse(SRC)
        plancache.cached_parse(SRC)
        snapshot = plancache.stats.as_dict()
        assert snapshot["parse_hits"] == 1
        assert snapshot["parse_misses"] == 1


#: A mini campaign mixing easy, dependent, control-flow, recurrence and
#: refuted kernels, so retries, faults and every proof stage occur.
MINI_CAMPAIGN = ["s000", "s112", "s1119", "s212", "s271", "s321"]


class TestParseOnce:
    def test_campaign_parses_no_source_twice(self, monkeypatch):
        from collections import Counter

        from repro.cfront import cparser
        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        parsed = Counter()
        parse_program = cparser.parse_program

        def counting_parse_program(source):
            parsed[source] += 1
            return parse_program(source)

        monkeypatch.setattr(cparser, "parse_program", counting_parse_program)
        for dtype in ("int32", "int16"):
            report = CampaignRunner(CampaignConfig(workers=1, dtype=dtype)).run(MINI_CAMPAIGN)
            assert len(report.records) == len(MINI_CAMPAIGN)
        assert parsed, "the campaign parsed nothing: the counter is not wired in"
        twice = [source.splitlines()[:2] for source, count in parsed.items() if count > 1]
        assert twice == []


class TestSharedAst:
    def test_readers_leave_a_cache_shared_ast_unchanged(self, monkeypatch):
        import copy

        from repro.alive.verifier import AliveVerifier
        from repro.analysis import features
        from repro.interp.checksum import checksum_testing
        from repro.staticcheck import check_candidate, clear_staticcheck_cache
        from repro.tsvc import load_kernel

        kernel = load_kernel("s271")
        scalar = plancache.cached_parse(kernel.source)
        code = plancache.cached_vectorize(kernel.source, scalar, "avx2").source
        candidate = plancache.cached_parse(code)
        before = copy.deepcopy([scalar, candidate])

        monkeypatch.setattr(features, "_FEATURE_MEMO", {})
        clear_staticcheck_cache()
        check_candidate(code, target="avx2", scalar_source=kernel.source)
        features.analyze_kernel(scalar)
        features.analyze_kernel(candidate)
        checksum_testing(kernel.source, code)
        verifier = AliveVerifier()
        verifier.check_with_alive_unroll(kernel.source, code)
        verifier.check_with_c_unroll(kernel.source, code)
        verifier.check_with_spatial_splitting(kernel.source, code)
        assert [scalar, candidate] == before

    def test_deepcopy_copies_nodes_and_shares_immutable_leaves(self):
        import copy

        from repro.cfront import ast_nodes as ast

        func = plancache.cached_parse(SRC)
        shared = ast.Identifier(name="i")
        func.body.body.append(ast.ExprStmt(expr=ast.BinOp(op="+", left=shared, right=shared)))
        twin = copy.deepcopy(func)
        assert twin == func
        pairs = list(zip(ast.walk(func), ast.walk(twin), strict=True))
        assert all(a is not b and type(a) is type(b) for a, b in pairs)
        assert all(a.location is b.location for a, b in pairs)
        assert twin.params[1].param_type is func.params[1].param_type
        assert twin.body.body is not func.body.body
        copied = twin.body.body[-1].expr
        assert copied.left is copied.right

    def test_kernel_dtype_memo_never_survives_a_copy(self):
        import copy

        from repro.cfront import ast_nodes as ast
        from repro.cfront.ctypes import CType

        func = plancache.cached_parse(SRC)
        assert ast.kernel_dtype(func).name == "int32"
        twin = copy.deepcopy(func)
        for param in twin.params:
            if param.param_type.is_pointer:
                param.param_type = CType("int16_t", 1)
        assert ast.kernel_dtype(twin).name == "int16"
        assert ast.kernel_dtype(func).name == "int32"
