"""Tests for the FLOPS and measured cost models and the dim mapper."""

import json

import pytest

from repro.cost import CostModel, DimMapper, FlopsCostModel, MeasuredCostModel, make_cost_model
from repro.cost.flops import NODE_EPSILON
from repro.ir import float_tensor, parse
from tests.cachefile import read_section

TYPES = {"A": float_tensor(4, 4), "B": float_tensor(4, 4), "x": float_tensor(4)}


def node_of(source):
    return parse(source, TYPES).node


class TestDimMapper:
    def test_identity_by_default(self):
        m = DimMapper()
        assert m.is_identity
        assert m.shape((3, 4)) == (3, 4)

    def test_dim_map(self):
        m = DimMapper({3: 384, 4: 512})
        assert m.shape((3, 4)) == (384, 512)
        assert m.dim(7) == 7  # unmapped dims untouched

    def test_scale_skips_units(self):
        m = DimMapper(scale=8)
        assert m.shape((1, 3)) == (1, 24)

    def test_cap(self):
        m = DimMapper({2: 4096}, cap=128)
        assert m.dim(2) == 128

    def test_attrs_shape_mapped(self):
        m = DimMapper({2: 64})
        assert m.attrs({"shape": (2, 3), "axis": 1}) == {"shape": (64, 3), "axis": 1}


class TestFlopsModel:
    def test_dot_dominates_elementwise(self):
        model = FlopsCostModel()
        assert model.program_cost(node_of("np.dot(A, B)")) > model.program_cost(
            node_of("A * B")
        )

    def test_epsilon_breaks_ties(self):
        model = FlopsCostModel()
        one = model.program_cost(node_of("np.transpose(A)"))
        two = model.program_cost(node_of("np.transpose(np.transpose(A))"))
        assert one == pytest.approx(NODE_EPSILON)
        assert two == pytest.approx(2 * NODE_EPSILON)

    def test_syntactic_duplication_costs_double(self):
        model = FlopsCostModel()
        assert model.program_cost(node_of("(A * B) + (A * B)")) == pytest.approx(
            2 * model.program_cost(node_of("A * B")) + 16 + NODE_EPSILON
        )

    def test_dim_map_changes_asymptotics(self):
        small = FlopsCostModel()
        mapped = FlopsCostModel(dim_map={4: 400})
        node = node_of("np.dot(A, B)")
        assert mapped.program_cost(node) > 100 * small.program_cost(node)


class TestMeasuredModel:
    def test_measures_and_caches(self):
        model = MeasuredCostModel()
        node = node_of("A * B")
        first = model.program_cost(node)
        assert first > 0
        assert model.table_size >= 1
        assert model.program_cost(node) == first  # cache hit

    def test_distinguishes_flop_equal_ops(self):
        """The Section VI-C motivation: pow vs mul differ under measurement
        (at sizes where NumPy does not special-case the exponent)."""
        model = MeasuredCostModel(dim_map={4: 256})
        pow_cost = model.program_cost(node_of("np.power(A, 2.5)"))
        mul_cost = model.program_cost(node_of("A * B"))
        assert pow_cost > mul_cost

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "table.json"
        model = MeasuredCostModel(cache_path=path)
        cost = model.program_cost(node_of("A + B"))
        model.save()
        reloaded = MeasuredCostModel(cache_path=path)
        assert reloaded.program_cost(node_of("A + B")) == cost
        assert json.loads(path.read_text())

    def test_truncated_table_is_reprofiled_and_saved_whole(self, tmp_path):
        """A kill mid-save used to leave a torn table that every later
        ``--cost_estimator measured`` run raised on at construction."""
        path = tmp_path / "measured_cache.json"
        model = MeasuredCostModel(cache_path=path)
        model.program_cost(node_of("A + B"))
        model.save()
        whole = path.read_text()
        for broken in (whole[: len(whole) // 2], "[1, 2, 3]", ""):
            path.write_text(broken)
            reloaded = MeasuredCostModel(cache_path=path)  # constructs: empty table
            assert reloaded.table_size == 0
            assert reloaded.program_cost(node_of("A + B")) > 0  # re-measured
            assert reloaded.table_size == model.table_size
            reloaded.save()
            assert set(json.loads(path.read_text())) == set(json.loads(whole))
            assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no *.tmp

    def test_save_requires_path(self):
        from repro.errors import CostModelError

        with pytest.raises(CostModelError):
            MeasuredCostModel().save()


class TestFactory:
    def test_names(self):
        assert isinstance(make_cost_model("flops"), FlopsCostModel)
        assert isinstance(make_cost_model("measured"), MeasuredCostModel)
        with pytest.raises(ValueError):
            make_cost_model("oracle")

    def test_kwargs_forwarded(self):
        model = make_cost_model("flops", dim_map={2: 20})
        assert model.mapper.dim(2) == 20


class TestPersistedCosts:
    """The persistent cache's cost section holds only expensive estimates."""

    def test_analytic_models_memoize_in_memory_only(self, tmp_path):
        from repro.cost.cached import with_caching
        from repro.synth import PersistentCache

        assert MeasuredCostModel.expensive_estimates
        assert not FlopsCostModel.expensive_estimates
        assert not make_cost_model("roofline").expensive_estimates

        cache = PersistentCache(tmp_path)
        node = node_of("A * B + A")
        model = with_caching(FlopsCostModel(), cache, "fp")
        assert model.program_cost(node) == FlopsCostModel().program_cost(node)
        assert model.program_cost(node) == FlopsCostModel().program_cost(node)
        assert (model.hits, model.misses) == (1, 1)  # the in-memory memo stays
        cache.save()
        assert list(tmp_path.iterdir()) == []  # nothing was the cache's to write

    def test_expensive_estimates_persist_across_runs(self, tmp_path):
        from repro.cost.cached import with_caching
        from repro.synth import PersistentCache

        class Timed(FlopsCostModel):
            expensive_estimates = True

        class MustNotRun(Timed):
            def program_cost(self, node):
                raise AssertionError("a persisted estimate was recomputed")

        node = node_of("A * B + A")
        cache = PersistentCache(tmp_path)
        cost = with_caching(Timed(), cache, "fp").program_cost(node)
        cache.save()
        assert [r["v"] for r in read_section(tmp_path, "costs")[1]] == [cost]
        warm = with_caching(MustNotRun(), PersistentCache(tmp_path), "fp")
        assert warm.program_cost(node) == cost
