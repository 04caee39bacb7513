"""On-disk result cache: persistence, stats, versioned invalidation."""

import json
import sqlite3

import pytest

from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.jobs import SCHEMA_VERSION


@pytest.fixture
def cache(tmp_path):
    with ResultCache(tmp_path / "cache") as instance:
        yield instance


class TestRoundTrip:
    def test_put_get(self, cache):
        cache.put("k1", "test", {"a": 1.5})
        assert cache.get("k1") == {"a": 1.5}

    def test_missing_key_is_none(self, cache):
        assert cache.get("nope") is None

    def test_get_many_partial(self, cache):
        cache.put_many([("a", "t", 1), ("b", "t", 2)])
        found = cache.get_many(["a", "b", "c"])
        assert found == {"a": 1, "b": 2}

    def test_overwrite_replaces(self, cache):
        cache.put("k", "t", 1)
        cache.put("k", "t", 2)
        assert cache.get("k") == 2
        assert cache.stats().entries == 1

    def test_persists_across_instances(self, tmp_path):
        with ResultCache(tmp_path / "c") as first:
            first.put("k", "t", [1, 2, 3])
        with ResultCache(tmp_path / "c") as second:
            assert second.get("k") == [1, 2, 3]


class TestBatchedLookup:
    def test_get_many_across_select_batches_equals_per_key_get(self, cache):
        """1201 keys (duplicates, misses, values of every JSON shape)
        straddle the 500-row SELECT batches."""
        def value(i):
            return [
                {"a": i * 0.5, "n": None}, [i, "x\u00e9\"", True],
                float(i) + 1e-9, str(i), -i, False,
            ][i % 6]

        # Every 7th key is never stored: a miss.
        stored = [i for i in range(1100) if i % 7 != 3]
        cache.put_many((f"k{i:04d}", "t", value(i)) for i in stored)
        keys = [f"k{i:04d}" for i in range(1100)]
        keys += keys[495:505] + ["absent"] * 3 + keys[:88]
        assert len(keys) == 1201

        found = cache.get_many(keys)
        assert found == {
            key: cache.get(key) for key in keys if cache.get(key) is not None
        }
        assert found == {f"k{i:04d}": value(i) for i in stored}


class TestStats:
    def test_hit_miss_accounting(self, cache):
        cache.put("a", "t", 1)
        cache.get_many(["a", "b", "c"])
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 2, 1)
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_idle_hit_rate_is_zero(self, cache):
        assert cache.stats().hit_rate == 0.0


class TestVersioning:
    def test_other_version_is_invisible(self, tmp_path):
        with ResultCache(tmp_path / "c", schema_version="v1") as old:
            old.put("k", "t", 1)
        with ResultCache(tmp_path / "c", schema_version="v2") as new:
            assert new.get("k") is None
            assert new.stats().stale_entries == 1

    def test_prune_stale(self, tmp_path):
        with ResultCache(tmp_path / "c", schema_version="v1") as old:
            old.put("k", "t", 1)
        with ResultCache(tmp_path / "c", schema_version="v2") as new:
            new.put("fresh", "t", 2)
            assert new.prune_stale() == 1
            stats = new.stats()
            assert (stats.entries, stats.stale_entries) == (1, 0)

    def test_clear_removes_everything(self, cache):
        cache.put_many([("a", "t", 1), ("b", "t", 2)])
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestWriteAheadLog:
    def test_fresh_cache_runs_wal_at_full_sync(self, cache):
        conn = cache._conn
        assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert conn.execute("PRAGMA synchronous").fetchone() == (2,)

    def test_rollback_journal_file_opens_with_every_row(self, tmp_path):
        # The table and rows exactly as a rollback-journal build wrote
        # them.
        path = tmp_path / "c" / "results.sqlite"
        path.parent.mkdir()
        rows = {f"k{i}": {"i": i, "x": i / 3} for i in range(20)}
        legacy = sqlite3.connect(str(path))
        assert legacy.execute("PRAGMA journal_mode").fetchone() == (
            "delete",
        )
        legacy.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " version TEXT NOT NULL,"
            " kind TEXT NOT NULL,"
            " value TEXT NOT NULL,"
            " created REAL NOT NULL)"
        )
        legacy.executemany(
            "INSERT INTO results VALUES (?, ?, ?, ?, ?)",
            [(key, SCHEMA_VERSION, "t", json.dumps(value), 0.0)
             for key, value in rows.items()],
        )
        legacy.commit()
        legacy.close()
        with ResultCache(tmp_path / "c") as reopened:
            assert reopened.get_many(list(rows)) == rows
            assert reopened.stats().entries == len(rows)

    def test_reader_does_not_wait_for_an_open_write(self, tmp_path):
        with ResultCache(tmp_path / "c") as reader, \
                ResultCache(tmp_path / "c") as writer:
            writer.put("old", "t", 1)
            # Under a rollback journal an exclusive writer locks every
            # reader out ("database is locked" once the wait runs out).
            writer._conn.execute("BEGIN EXCLUSIVE")
            writer._conn.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?)",
                ["new", SCHEMA_VERSION, "t", "2", 0.0],
            )
            assert reader.get_many(["old", "new"]) == {"old": 1}
            writer._conn.commit()
            assert reader.get_many(["old", "new"]) == {"old": 1, "new": 2}

    def test_last_close_removes_the_sidecar_files(self, tmp_path):
        directory = tmp_path / "c"
        first = ResultCache(directory)
        second = ResultCache(directory)
        first.put("a", "t", 1)
        second.put("b", "t", 2)
        assert (directory / "results.sqlite-wal").exists()
        first.close()
        second.close()
        assert sorted(p.name for p in directory.iterdir()) == [
            "results.sqlite"
        ]
        with ResultCache(directory) as reopened:
            assert reopened.get_many(["a", "b"]) == {"a": 1, "b": 2}


class TestDefaultDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"


class TestKeyStability:
    """Regression: equal configs must land on the same cache row.

    The key derivation flows through ``runtime.jobs.canonical``; these
    pin the float/dict edge cases that used to fork equal inputs onto
    distinct rows (or crash outright).
    """

    def test_equal_configs_hit_the_same_row(self, cache):
        from repro.config import SimConfig
        from repro.runtime.jobs import content_key

        a = SimConfig()
        b = SimConfig()  # equal by construction
        cache.put(content_key(a.to_dict()), "point", {"power": 1.0})
        assert cache.get(content_key(b.to_dict())) == {"power": 1.0}

    def test_negative_zero_config_hits_positive_zero_row(self, cache):
        from repro.runtime.jobs import content_key

        spec = {"sigma": 0.0, "nested": {"offset": 0.0}}
        twin = {"nested": {"offset": -0.0}, "sigma": -0.0}
        cache.put(content_key(spec), "point", 7)
        assert cache.get(content_key(twin)) == 7

    def test_nested_dict_key_order_hits_the_same_row(self, cache):
        from repro.runtime.jobs import content_key

        a = {"outer": {"x": 1, "y": {"b": 2, "a": 1}}}
        b = {"outer": {"y": {"a": 1, "b": 2}, "x": 1}}
        cache.put(content_key(a), "point", "same")
        assert cache.get(content_key(b)) == "same"

    def test_nan_configs_share_a_row_distinct_from_the_string(self, cache):
        from repro.runtime.jobs import content_key

        nan_key = content_key({"threshold": float("nan")})
        str_key = content_key({"threshold": "nan"})
        assert nan_key != str_key
        cache.put(nan_key, "point", "float-nan")
        assert cache.get(content_key({"threshold": float("nan")})) == (
            "float-nan"
        )
        assert cache.get(str_key) is None
