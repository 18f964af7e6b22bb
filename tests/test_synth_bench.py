"""Synthetic generators and the timing harness (small sizes only)."""

import numpy as np
import pytest

from cohash.bench import (
    bench_query_vs_k,
    bench_query_vs_n,
    bench_train_vs_workers,
    bucket_stats,
    time_median_ms,
    write_rows_csv,
)
from cohash.core import HashCode, Hyperparams
from cohash.synth import implicit_dataset, planted_dataset, random_codes


class TestRandomCodes:
    def test_shapes_and_determinism(self):
        a = random_codes(20, 12, seed=4)
        b = random_codes(20, 12, seed=4)
        assert len(a) == 20 and a.k == 12
        np.testing.assert_array_equal(a.words, b.words)

    def test_seed_changes_codes(self):
        a = random_codes(50, 16, seed=0)
        b = random_codes(50, 16, seed=1)
        assert not np.array_equal(a.words, b.words)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_codes(0, 8)

    @pytest.mark.parametrize("k", [12, 32, 70])
    def test_same_bits_as_per_row_construction(self, k):
        # inputs of the benchmarks and acceptance tests stay the same bits
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(40, k), dtype=np.uint8)
        want = np.stack([HashCode.from_bits(row).words for row in bits])
        np.testing.assert_array_equal(random_codes(40, k, seed=6).words, want)


class TestPlantedDataset:
    def test_shape_and_scale(self):
        data = planted_dataset(30, 40, 200, k_true=8, seed=1)
        assert len(data) == 200
        assert data.num_users == 30 and data.num_items == 40
        assert data.scale == (1.0, 5.0)
        assert set(np.unique(data.raw_ratings)) <= {1.0, 2.0, 3.0, 4.0, 5.0}
        np.testing.assert_allclose(data.ratings, (data.raw_ratings - 1.0) / 4.0)

    def test_no_duplicate_cells(self):
        data = planted_dataset(10, 10, 100, seed=3)
        cells = set(zip(data.users.tolist(), data.items.tolist()))
        assert len(cells) == 100

    def test_deterministic(self):
        a = planted_dataset(12, 9, 60, seed=7)
        b = planted_dataset(12, 9, 60, seed=7)
        np.testing.assert_array_equal(a.users, b.users)
        np.testing.assert_array_equal(a.raw_ratings, b.raw_ratings)

    def test_signal_present(self):
        # planted codes must explain ratings better than chance: the
        # latent similarity and the emitted stars correlate strongly
        num_users, num_items = 40, 30
        seed = 11
        rng = np.random.default_rng(seed)
        u_codes = rng.choice([-1.0, 1.0], size=(num_users, 10))
        v_codes = rng.choice([-1.0, 1.0], size=(num_items, 10))
        data = planted_dataset(num_users, num_items, 600, k_true=10, seed=seed)
        sims = np.einsum("ij,ij->i", u_codes[data.users], v_codes[data.items])
        corr = np.corrcoef(sims, data.raw_ratings)[0, 1]
        assert corr > 0.8

    def test_too_many_ratings_rejected(self):
        with pytest.raises(ValueError):
            planted_dataset(3, 3, 10)


class TestImplicitDataset:
    def test_density(self):
        data = implicit_dataset(200, 100, density=0.01, seed=0)
        assert len(data) == 200
        assert set(np.unique(data.ratings)) == {1.0}
        assert data.scale == (0.0, 1.0)

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            implicit_dataset(10, 10, density=0.0)


class TestTiming:
    def test_median_timer_positive(self):
        acc = []
        ms = time_median_ms(lambda: acc.append(sum(range(1000))), reps=5)
        assert ms >= 0.0
        assert len(acc) == 6  # warm-up plus five timed runs

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            time_median_ms(lambda: None, reps=3)

    def test_query_vs_k_rows(self):
        rows = bench_query_vs_k(num_items=64, ks=(4, 8), num_queries=3, reps=5)
        assert [r["k"] for r in rows] == [4, 8]
        assert all(r["hash_ms"] > 0 and r["real_ms"] > 0 for r in rows)
        assert all(r["num_items"] == 64 for r in rows)

    def test_query_vs_n_rows(self):
        rows = bench_query_vs_n(k=8, ns=(32, 64), num_queries=3, reps=5)
        assert [r["num_items"] for r in rows] == [32, 64]

    def test_train_vs_workers(self):
        data = planted_dataset(16, 12, 80, seed=2)
        h = Hyperparams(k=3, alpha=0.05, batch_size=16, epochs=2,
                        staleness=2, seed=1)
        rows = bench_train_vs_workers(data, h, workers=(1, 2), mode="threads")
        assert [r["workers"] for r in rows] == [1, 2]
        assert all(r["wall_clock_ms"] > 0 for r in rows)
        assert all(r["barriers"] >= 1 for r in rows)

    def test_bucket_stats(self):
        codes = random_codes(100, 6, seed=0)
        stats = bucket_stats(codes)
        assert stats["buckets"] <= 64
        assert stats["min_size"] >= 1
        assert stats["buckets"] * stats["mean_size"] == pytest.approx(100.0)

    def test_write_rows_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(path, [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert path.read_text().splitlines() == ["a,b", "1,2.5", "3,4.0"]

    def test_write_rows_csv_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows_csv(tmp_path / "x.csv", [])
