"""Tests for the content-addressed result cache and its keys."""

import dataclasses
import json
import multiprocessing
import os
import sqlite3
import sys
import threading
from contextlib import closing
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.runner import (
    ExperimentSetup,
    ResultCache,
    RunRequest,
    cache_key,
    canonical_json,
    code_fingerprint,
    execute_request,
    freeze,
)

FAST = ExperimentSetup(duration_h=0.2)


@pytest.fixture(scope="module")
def sample_result():
    return execute_request(RunRequest("SCFirst", "TS", setup=FAST))


class TestKeys:
    def test_key_is_hex_sha256(self):
        key = cache_key(RunRequest("SCFirst", "TS", setup=FAST))
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_same_request_same_key(self):
        a = cache_key(RunRequest("SCFirst", "TS", setup=FAST))
        b = cache_key(RunRequest("SCFirst", "TS",
                                 setup=ExperimentSetup(duration_h=0.2)))
        assert a == b

    def test_any_field_changes_key(self):
        base = RunRequest("SCFirst", "TS", setup=FAST)
        variants = [
            RunRequest("BaOnly", "TS", setup=FAST),
            RunRequest("SCFirst", "PR", setup=FAST),
            RunRequest("SCFirst", "TS",
                       setup=ExperimentSetup(duration_h=0.2, seed=2)),
            RunRequest("SCFirst", "TS", setup=FAST, renewable=True),
            RunRequest("SCFirst", "TS", setup=FAST,
                       policy_sc_fraction=0.4),
        ]
        keys = {cache_key(v) for v in variants}
        assert cache_key(base) not in keys
        assert len(keys) == len(variants)

    def test_freeze_tags_dataclasses(self):
        frozen = freeze(FAST)
        assert frozen["__dataclass__"] == "ExperimentSetup"
        assert frozen["duration_h"] == 0.2

    def test_canonical_json_is_deterministic(self):
        request = RunRequest("HEB-D", "PR", setup=FAST, renewable=True)
        assert canonical_json(request) == canonical_json(request)
        # Canonical form must be parseable JSON with sorted keys.
        payload = json.loads(canonical_json(request))
        assert payload["__dataclass__"] == "RunRequest"

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


DATABASE = "results.sqlite3"


def read_payload(directory, key):
    with closing(sqlite3.connect(directory / DATABASE)) as database:
        (payload,), = database.execute(
            "SELECT payload FROM results WHERE key = ?", (key,))
    return payload


def write_payload(directory, key, payload):
    with closing(sqlite3.connect(directory / DATABASE)) as database:
        with database:
            database.execute("UPDATE results SET payload = ? WHERE key = ?",
                             (payload, key))


def open_paths():
    """The targets of this process's open file descriptors."""
    targets = []
    for fd in Path("/proc/self/fd").iterdir():
        try:
            targets.append(os.readlink(fd))
        except OSError:
            pass  # closed since the listing (the listing's own fd)
    return targets


def variant(result, index):
    """A result distinguishable from ``result`` by its scheme name."""
    return dataclasses.replace(result, scheme=f"{result.scheme}-{index}")


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None

    def test_put_get_round_trip(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, sample_result)
        assert key in cache
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == sample_result.to_dict()

    def test_database_layout(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        cache.put("cd" + "1" * 62, sample_result)
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {DATABASE, f"{DATABASE}-wal", f"{DATABASE}-shm"}

    def test_corrupt_entry_reads_as_miss(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, sample_result)
        write_payload(tmp_path, key, "{not json")
        assert cache.get(key) is None

    def test_wrong_format_version_reads_as_miss(self, tmp_path,
                                                sample_result):
        cache = ResultCache(tmp_path)
        key = "0a" + "3" * 62
        cache.put(key, sample_result)
        payload = json.loads(read_payload(tmp_path, key))
        payload["format"] = 999
        write_payload(tmp_path, key, json.dumps(payload))
        assert cache.get(key) is None

    def test_clear_and_stats(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02x}" + "4" * 62, sample_result)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert len(cache) == 3
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_garbage_database_is_replaced_by_an_empty_one(self, tmp_path,
                                                          sample_result):
        (tmp_path / DATABASE).write_bytes(b"not a database\n" * 512)
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        key = "5" * 64
        cache.put(key, sample_result)
        assert cache.get(key) == sample_result

    def test_unopenable_database_is_a_clean_usage_error(self, tmp_path,
                                                        capsys):
        (tmp_path / DATABASE).mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "SCFirst", "TS", "--hours", "0.1",
                  "--cache", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "cannot open the result cache" in capsys.readouterr().err

    def test_put_many_is_all_or_nothing(self, tmp_path, sample_result):
        cache = ResultCache(tmp_path)
        unserializable = dataclasses.replace(sample_result, scheme=object())
        with pytest.raises(TypeError):
            cache.put_many([("6" * 64, sample_result),
                            ("7" * 64, unserializable)])
        assert len(cache) == 0
        assert "6" * 64 not in cache


def _write_disjoint_keys(directory, prefix, result, count):
    cache = ResultCache(directory)
    for index in range(count):
        cache.put_many([(f"{prefix}{index:063x}", result)])
    cache.close()


class TestConcurrencyAndLifetime:
    def test_threads_mixing_put_many_and_get(self, tmp_path, sample_result):
        """Eight threads on one cache, switching as often as possible:
        every key must read back as the result written under it."""
        cache = ResultCache(tmp_path)
        workers, batches, batch_size = 8, 40, 4
        failures = []

        def work(worker):
            try:
                for batch in range(batches):
                    pairs = []
                    for slot in range(batch_size):
                        index = (worker * batches + batch) * batch_size + slot
                        pairs.append((f"{index:064x}",
                                      variant(sample_result, index)))
                    cache.put_many(pairs)
                    for key, result in pairs:
                        if cache.get(key) != result:
                            failures.append(key)
            except Exception as error:  # reported by the assert below
                failures.append(repr(error))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(worker,))
                       for worker in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert failures == []
        total = workers * batches * batch_size
        assert len(cache) == total
        for index in range(total):
            assert cache.get(f"{index:064x}") == variant(sample_result, index)

    def test_two_processes_write_one_directory(self, tmp_path,
                                               sample_result):
        context = multiprocessing.get_context("spawn")
        count = 40
        writers = [context.Process(target=_write_disjoint_keys,
                                   args=(tmp_path, prefix, sample_result,
                                         count))
                   for prefix in ("a", "b")]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert not writer.is_alive()
            assert writer.exitcode == 0
        cache = ResultCache(tmp_path)
        assert len(cache) == 2 * count
        for prefix in ("a", "b"):
            for index in range(count):
                assert cache.get(f"{prefix}{index:063x}") == sample_result

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                        reason="needs /proc/self/fd")
    def test_dropped_cache_closes_its_database(self, tmp_path,
                                               sample_result):
        database = str((tmp_path / DATABASE).resolve())
        cache = ResultCache(tmp_path)
        cache.put("8" * 64, sample_result)
        assert any(path.startswith(database) for path in open_paths())
        del cache  # no close() and no gc.collect()
        assert not any(path.startswith(database) for path in open_paths())

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                        reason="needs /proc/self/fd")
    def test_with_block_closes_and_use_reopens(self, tmp_path,
                                               sample_result):
        database = str((tmp_path / DATABASE).resolve())
        key = "9" * 64
        with ResultCache(tmp_path) as cache:
            cache.put(key, sample_result)
        assert not any(path.startswith(database) for path in open_paths())
        assert cache.get(key) == sample_result
        cache.close()
