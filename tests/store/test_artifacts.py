"""ArtifactStore: cache hits, corruption healing, LRU gc, verify."""

import os
import pickle
import time

import pytest

from repro.errors import StoreCorruptError, StoreError, StoreSchemaError
from repro.runtime.program import resolve_backend, resolve_opt_level
from repro.store import (ARTIFACT_SCHEMA, ArtifactStore, program_key,
                         write_atomic)
from repro.telemetry import Telemetry
from tests.conftest import FIGURE_1


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


class TestProgramCache:
    def test_miss_then_hit(self, store):
        first = store.get_program(FIGURE_1, "fig1")
        assert store.counters == {"store.cache.miss": 1}
        second = store.get_program(FIGURE_1, "fig1")
        assert store.counters["store.cache.hit"] == 1
        # The hit deserializes an equivalent, runnable program.
        assert second.name == first.name
        assert second.checked_branch_count() == first.checked_branch_count()

    def test_hit_lands_on_telemetry(self, store):
        store.get_program(FIGURE_1, "fig1")
        tel = Telemetry()
        store.get_program(FIGURE_1, "fig1", telemetry=tel)
        assert tel.snapshot().counter("store.cache.hit") == 1

    def test_loaded_program_runs(self, store):
        store.get_program(FIGURE_1, "fig1")
        program = store.get_program(FIGURE_1, "fig1")

        def setup(memory):
            memory.set_scalar("nprocs", 2)
            memory.set_array("gp", [5, 40] * 32)

        result = program.run_protected(2, setup=setup)
        assert result.status == "ok"

    def test_corrupt_entry_is_a_miss_and_self_heals(self, store):
        store.get_program(FIGURE_1, "fig1")
        # Resolve the env knobs exactly as get_program does, so the test
        # holds under forced REPRO_OPT_LEVEL/REPRO_BACKEND environments
        # (CI optimizer matrix).
        key = program_key(FIGURE_1, "fig1",
                          opt_level=resolve_opt_level(None),
                          backend=resolve_backend(None))
        data = os.path.join(store._entry_dir(key), "data.pkl")
        with open(data, "wb") as handle:
            handle.write(b"not a pickle")
        program = store.get_program(FIGURE_1, "fig1")
        assert program.name == "fig1"
        assert store.counters["store.cache.miss"] == 2
        # healed: strict load works again
        assert store.load(key, "program").name == "fig1"


class TestStrictLoad:
    def test_missing_raises(self, store):
        with pytest.raises(StoreError):
            store.load("0" * 64, "program")

    def test_corrupt_raises(self, store):
        store.put("a" * 64, "program", {"x": 1})
        with open(os.path.join(store._entry_dir("a" * 64), "data.pkl"),
                  "wb") as handle:
            handle.write(b"\x80garbage")
        with pytest.raises(StoreCorruptError):
            store.load("a" * 64, "program")

    def test_schema_mismatch_raises(self, store):
        directory = store._entry_dir("b" * 64)
        os.makedirs(directory)
        with open(os.path.join(directory, "data.pkl"), "wb") as handle:
            pickle.dump({"schema": ARTIFACT_SCHEMA + 1, "kind": "program",
                         "payload": 1}, handle)
        with pytest.raises(StoreSchemaError):
            store.load("b" * 64, "program")

    def test_kind_mismatch_raises(self, store):
        store.put("c" * 64, "golden", {"x": 1})
        with pytest.raises(StoreCorruptError):
            store.load("c" * 64, "program")


class TestMaintenance:
    def fill(self, store, n):
        for i in range(n):
            store.put(("%02x" % i) * 32, "golden", {"i": i}, name="g%d" % i)

    def test_entries_and_total(self, store):
        self.fill(store, 3)
        entries = store.entries()
        assert len(entries) == 3
        assert store.total_bytes() == sum(e.size for e in entries)

    def test_gc_max_entries_evicts_lru(self, store):
        self.fill(store, 4)
        # Touch entry 0 so it is the freshest; 1 is now the oldest.
        time.sleep(0.02)
        store.load("00" * 32, "golden")
        evicted = store.gc(max_entries=3)
        assert len(evicted) == 1
        assert evicted[0].key != "00" * 32
        assert len(store.entries()) == 3

    def test_gc_max_bytes(self, store):
        self.fill(store, 4)
        per = store.entries()[0].size
        evicted = store.gc(max_bytes=2 * per)
        assert len(evicted) == 2
        assert store.total_bytes() <= 2 * per

    def test_gc_dry_run(self, store):
        self.fill(store, 2)
        assert len(store.gc(max_entries=0, dry_run=True)) == 2
        assert len(store.entries()) == 2

    def test_verify_reports_and_deletes(self, store):
        self.fill(store, 2)
        bad = store.entries()[0]
        with open(os.path.join(bad.path, "data.pkl"), "wb") as handle:
            handle.write(b"junk")
        problems = store.verify()
        assert len(problems) == 1 and problems[0][0].key == bad.key
        assert len(store.entries()) == 2  # report only
        store.verify(delete=True)
        assert len(store.entries()) == 1


class TestRetiredClosureKind:
    def test_old_closure_bundle_lists_verifies_and_is_collected(self, store):
        """Stores written while compiled closures were cached hold
        ``closure``-kind objects; they stay ordinary, collectable
        entries."""
        key = "cc" * 32
        store.put(key, "closure",
                  {"version": 1,
                   "functions": {"slave": {"source": "def f():\n    pass\n",
                                           "units": []}}},
                  name="closure bundle")
        store.put("dd" * 32, "golden", {"i": 0}, name="g")
        assert {(e.key, e.kind) for e in store.entries()} >= {(key, "closure")}
        assert store.verify() == []
        evicted = store.gc(max_entries=0)
        assert key in {e.key for e in evicted}
        assert store.entries() == []


class TestVulnKind:
    """Per-function vulnerability summaries share the generic entry
    machinery; pin the behaviors the analyzer relies on."""

    def summarize(self, store, fingerprint, payload):
        from repro.store import vuln_key
        from repro.lint.vuln import VULN_SCHEMA
        key = vuln_key(fingerprint, VULN_SCHEMA)
        return key, store.get_vuln(key, lambda: payload)

    def test_miss_then_hit(self, store):
        key, first = self.summarize(store, "func f", {"function": "f"})
        assert store.counters == {"store.vuln.miss": 1}
        _, second = self.summarize(store, "func f", {"function": "DIFFERENT"})
        assert store.counters["store.vuln.hit"] == 1
        assert second == first  # compute() not called on a hit

    def test_schema_bump_changes_key(self, store):
        from repro.store import vuln_key
        assert vuln_key("func f", 1) != vuln_key("func f", 2)

    def test_corrupt_summary_falls_back_to_cold_analysis(self, store):
        key, _ = self.summarize(store, "func f", {"function": "f"})
        with open(os.path.join(store._entry_dir(key), "data.pkl"),
                  "wb") as handle:
            handle.write(b"not a pickle")
        calls = []

        def compute():
            calls.append(1)
            return {"function": "f", "fresh": True}

        healed = store.get_vuln(key, compute)
        assert calls == [1]
        assert healed["fresh"] is True
        assert store.counters["store.vuln.miss"] == 2
        # healed in place: strict load works again
        assert store.load(key, "vuln")["fresh"] is True

    def test_kind_mismatch_rejected(self, store):
        store.put("d" * 64, "golden", {"x": 1})
        with pytest.raises(StoreCorruptError):
            store.load("d" * 64, "vuln")

    def test_gc_evicts_stale_vuln_entries_first(self, store):
        keys = []
        for i in range(3):
            key, _ = self.summarize(store, "func f%d" % i, {"i": i})
            keys.append(key)
            time.sleep(0.02)
        # Re-read the oldest summary: it becomes the freshest.
        store.get_vuln(keys[0], lambda: pytest.fail("should hit"))
        evicted = store.gc(max_entries=2)
        assert [e.key for e in evicted] == [keys[1]]
        kept = {e.key for e in store.entries()}
        assert kept == {keys[0], keys[2]}

    def test_verify_flags_corrupt_vuln_entry(self, store):
        key, _ = self.summarize(store, "func f", {"function": "f"})
        with open(os.path.join(store._entry_dir(key), "data.pkl"),
                  "wb") as handle:
            handle.write(b"junk")
        problems = store.verify()
        assert [p[0].key for p in problems] == [key]
        store.verify(delete=True)
        assert store.entries() == []

    def test_mixed_kind_gc_is_lru_across_kinds(self, store):
        store.put("e" * 64, "golden", {"x": 1}, name="g")
        time.sleep(0.02)
        key, _ = self.summarize(store, "func f", {"function": "f"})
        evicted = store.gc(max_entries=1)
        assert [e.key for e in evicted] == ["e" * 64]
        assert [e.kind for e in store.entries()] == ["vuln"]


class TestWriteAtomic:
    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "state.json"
        write_atomic(str(path), "first")
        write_atomic(str(path), b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(tmp_path) == ["state.json"]

    def test_failure_removes_temp_and_raises(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()  # os.replace onto a directory fails
        with pytest.raises(OSError):
            write_atomic(str(target), "data")
        assert os.listdir(tmp_path) == ["target"]

    def test_concurrent_writers_never_share_a_temp_file(self, tmp_path):
        import sys
        import threading
        path = str(tmp_path / "shared.json")
        payloads = [("writer %d " % n) * 5000 for n in range(8)]
        errors = []

        def write(text):
            try:
                for _ in range(20):
                    write_atomic(path, text)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,))
                   for text in payloads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        with open(path, encoding="utf-8") as handle:
            assert handle.read() in payloads
        assert os.listdir(tmp_path) == ["shared.json"]
