"""Tests for the per-process bounds/formulation LRU caches."""

import pytest

from repro.core.bounds import lower_bounds
from repro.core.formulation import FormulationOptions
from repro.ddg.builders import parse_ddg, serialize_ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import motivating_machine, powerpc604
from repro.parallel import cache


@pytest.fixture(autouse=True)
def fresh_caches():
    cache.clear_caches()
    yield
    cache.clear_caches()


class TestLruCache:
    def test_basic_roundtrip(self):
        lru = cache.LruCache(maxsize=2)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("b") is None
        assert lru.hits == 1 and lru.misses == 1

    def test_eviction_is_lru(self):
        lru = cache.LruCache(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")          # refresh a; b is now least-recent
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3

    def test_bad_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            cache.LruCache(maxsize=0)

    def test_pop_removes_without_counting(self):
        lru = cache.LruCache(maxsize=2)
        lru.put("a", 1)
        assert lru.pop("a") == 1
        assert lru.pop("a") is None
        assert lru.hits == 0 and lru.misses == 0
        assert lru.get("a") is None  # really gone: this is the only miss
        assert lru.misses == 1

    def test_weight_budget_evicts_oldest(self):
        lru = cache.LruCache(maxsize=10, max_weight=10, weigh=len)
        lru.put("a", "xxxx")
        lru.put("b", "xxxx")
        lru.get("a")          # refresh a; b is now least-recent
        lru.put("c", "xxxx")
        assert lru.get("b") is None
        assert lru.get("a") == "xxxx" and lru.get("c") == "xxxx"
        assert lru.weight == 8
        lru.put("a", "x")     # replacing re-weighs the entry
        assert lru.weight == 5
        assert lru.pop("c") == "xxxx" and lru.weight == 1

    def test_newest_entry_kept_over_budget(self):
        lru = cache.LruCache(maxsize=10, max_weight=10, weigh=len)
        lru.put("a", "x")
        lru.put("big", "x" * 50)
        assert len(lru) == 1 and lru.get("big") is not None
        lru.clear()
        assert lru.weight == 0 and len(lru) == 0

    def test_formulation_cache_is_nonzero_budgeted(self):
        ddg, machine = motivating_example(), motivating_machine()
        for t in range(4, 12):
            cache.cached_formulation(ddg, machine, t)
        lru = cache._FORMULATION_CACHE
        assert len(lru) == 8
        assert lru.weight == sum(
            f.model_stats.nonzeros for f in lru._data.values()
        )
        assert 0 < lru.weight <= cache.FORMULATION_NONZERO_BUDGET


class TestDigests:
    def test_ddg_digest_is_content_based(self):
        ddg = motivating_example()
        clone = parse_ddg(serialize_ddg(ddg))
        assert cache.ddg_digest(ddg) == cache.ddg_digest(clone)

    def test_ddg_digest_distinguishes(self):
        ddg = motivating_example()
        other = ddg.copy()
        other.add_dep(0, 5)
        assert cache.ddg_digest(ddg) != cache.ddg_digest(other)

    def test_machine_digest_distinguishes(self):
        assert cache.machine_digest(motivating_machine()) != (
            cache.machine_digest(powerpc604())
        )
        assert cache.machine_digest(motivating_machine(fp_units=2)) != (
            cache.machine_digest(motivating_machine(fp_units=3))
        )

    def test_machine_digest_stable(self):
        assert cache.machine_digest(powerpc604()) == cache.machine_digest(
            powerpc604()
        )

    def test_machine_digest_ignores_display_name(self):
        # Regression: the digest once folded in ``machine.name``, so two
        # identical machines loaded under different file names could not
        # share cache entries (or store keys).
        from repro.machine.machine import Machine
        from repro.machine.reservation import ReservationTable

        def build(name):
            m = Machine(name)
            m.add_fu_type("FP", count=2, table=ReservationTable.clean(2))
            m.add_op_class("fadd", "FP", latency=2)
            return m

        assert cache.machine_digest(build("alpha")) == cache.machine_digest(
            build("beta")
        )


class TestCachedLowerBounds:
    def test_matches_uncached(self):
        ddg, machine = motivating_example(), motivating_machine()
        assert cache.cached_lower_bounds(ddg, machine) == lower_bounds(
            ddg, machine
        )

    def test_second_call_hits(self):
        ddg, machine = motivating_example(), motivating_machine()
        cache.cached_lower_bounds(ddg, machine)
        before = cache.cache_stats()["bounds"]["hits"]
        # A *different object* with identical content still hits.
        clone = parse_ddg(serialize_ddg(ddg))
        cache.cached_lower_bounds(clone, machine)
        assert cache.cache_stats()["bounds"]["hits"] == before + 1


class TestCachedFormulation:
    def test_reuse_and_resolve(self):
        ddg, machine = motivating_example(), motivating_machine()
        first = cache.cached_formulation(ddg, machine, 4)
        again = cache.cached_formulation(ddg, machine, 4)
        assert first is again
        # A cached formulation still solves and extracts correctly.
        solution = first.solve()
        assert solution.status.has_solution
        schedule = first.extract(solution)
        assert schedule.t_period == 4

    def test_distinct_periods_distinct_entries(self):
        ddg, machine = motivating_example(), motivating_machine()
        assert cache.cached_formulation(ddg, machine, 4) is not (
            cache.cached_formulation(ddg, machine, 5)
        )

    def test_options_partition_the_cache(self):
        ddg, machine = motivating_example(), motivating_machine()
        plain = cache.cached_formulation(ddg, machine, 4)
        relaxed = cache.cached_formulation(
            ddg, machine, 4, FormulationOptions(mapping=False)
        )
        assert plain is not relaxed
