"""Sharded sampling: worker-count invariance and deterministic plans."""

import numpy as np
import pytest

from repro.serve import CsvSink, ShardedSampler, plan_shards, sharding
from repro.utils.blas import blas_threads, limit_blas_threads, thread_budget


class TestPlan:
    def test_rows_partitioned_exactly(self):
        shards = plan_shards(100, 32, seed=0)
        assert [s.rows for s in shards] == [32, 32, 32, 4]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_plan_is_deterministic_and_seed_sensitive(self):
        a = plan_shards(64, 16, seed=1)
        b = plan_shards(64, 16, seed=1)
        c = plan_shards(64, 16, seed=2)
        key = lambda shards: [s.seed.generate_state(2).tolist() for s in shards]
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(0, 16)
        with pytest.raises(ValueError):
            plan_shards(16, 0)


class TestShardedSampler:
    @pytest.fixture(scope="class")
    def sampler(self, populated_registry):
        return ShardedSampler(populated_registry, "tiny", shard_rows=16)

    def test_unknown_model_rejected(self, populated_registry):
        with pytest.raises(ValueError, match="no model named"):
            ShardedSampler(populated_registry, "missing")

    def test_output_invariant_to_worker_count(self, sampler):
        """The acceptance property: bit-identical output for any --workers."""
        inline = sampler.sample_values(40, seed=7, workers=1)
        two = sampler.sample_values(40, seed=7, workers=2)
        three = sampler.sample_values(40, seed=7, workers=3)
        assert np.array_equal(inline, two)
        assert np.array_equal(inline, three)

    def test_pool_workers_start_on_a_thread_budget(self, populated_registry,
                                                   monkeypatch):
        # The initializer caches the model module-wide; keep that cache
        # local to this test.
        monkeypatch.setattr(sharding, "_WORKER_MODEL", {})
        before = blas_threads()
        with limit_blas_threads(before or 1):  # restores the count after
            sharding._worker_init(str(populated_registry.root), "tiny", 2)
            during = blas_threads()
        if before is not None:
            assert during == min(before, thread_budget(2))
        assert blas_threads() == before

    def test_table_output_matches_registry_model(self, sampler,
                                                 populated_registry):
        table = sampler.sample_table(20, seed=3, workers=2)
        assert table.n_rows == 20
        model = populated_registry.load("tiny")
        shard = plan_shards(20, 16, seed=3)[0]
        want = model.sample(shard.rows, rng=np.random.default_rng(shard.seed))
        assert np.array_equal(table.values[: shard.rows], want.values)

    def test_sink_streaming_equals_in_memory(self, sampler, tmp_path):
        values = sampler.sample_values(40, seed=7, workers=2)
        path = tmp_path / "rows.csv"
        with CsvSink(path, sampler.schema) as sink:
            written = sampler.sample_to_sink(40, sink, seed=7, workers=2)
        assert written == 40
        from repro.data.io import write_csv
        from repro.data.table import Table

        reference = tmp_path / "reference.csv"
        write_csv(Table(values, sampler.schema), reference)
        assert path.read_text() == reference.read_text()

    def test_seed_changes_output(self, sampler):
        a = sampler.sample_values(20, seed=1, workers=1)
        b = sampler.sample_values(20, seed=2, workers=1)
        assert not np.array_equal(a, b)
