"""Cache correctness: the ways an incremental cache can lie, tested.

A findings cache that serves a stale, corrupted, or mis-rebased entry
is worse than no cache — it silently changes analyzer verdicts.  Each
test here is one way that can happen: corrupted entry files, entries
written by an older analyzer version, identical content living at two
paths, and the mutation test (edit one file out of many, exactly that
file re-analyzes).
"""

import json
import os

from repro.analysis.engine import (
    AnalysisEngine,
    FindingsCache,
    LintPass,
    MemoryCache,
    WorkUnit,
    content_digest,
    scope_id,
)
from repro.analysis.engine import cache as engine_cache
from repro.smp.fixtures import fixture

RACY = fixture("racy_counter_twin").source
CLEAN = fixture("locked_counter_twin").source


def entry_files(cache_root):
    found = []
    for root, _dirs, names in os.walk(cache_root):
        found.extend(
            os.path.join(root, n)
            for n in names
            if n.endswith(".json") and n != "meta.json"
        )
    return found


class TestCorruption:
    def test_corrupted_entry_degrades_to_a_miss_and_heals(self, tmp_path):
        path = tmp_path / "prog.py"
        path.write_text(RACY)
        cache = FindingsCache(str(tmp_path / "cache"))
        first = AnalysisEngine(LintPass(), cache=cache)
        reference = first.run_paths([str(path)])
        (entry,) = entry_files(str(tmp_path / "cache"))
        with open(entry, "w") as fh:
            fh.write("{ this is not json")
        second = AnalysisEngine(LintPass(), cache=cache)
        report = second.run_paths([str(path)])
        assert report.findings == reference.findings
        stats = second.stats()
        assert stats["engine.cache.hits"] == 0
        assert stats["engine.files.analyzed"] == 1
        # The corrupted entry was rewritten: the next run hits again.
        third = AnalysisEngine(LintPass(), cache=cache)
        assert third.run_paths([str(path)]).findings == reference.findings
        assert third.stats()["engine.cache.hits"] == 1

    def test_wrong_shaped_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "prog.py"
        path.write_text(RACY)
        cache = FindingsCache(str(tmp_path / "cache"))
        AnalysisEngine(LintPass(), cache=cache).run_paths([str(path)])
        (entry,) = entry_files(str(tmp_path / "cache"))
        with open(entry, "w") as fh:
            json.dump({"schema": 999, "outcome": {}}, fh)
        engine = AnalysisEngine(LintPass(), cache=cache)
        report = engine.run_paths([str(path)])
        assert {f.rule for f in report.findings} == {"PDC101"}
        assert engine.stats()["engine.cache.hits"] == 0


class TestVersionInvalidation:
    def test_stale_analyzer_version_scope_is_pruned(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "prog.py"
        path.write_text(RACY)
        root = str(tmp_path / "cache")
        cache = FindingsCache(root)
        AnalysisEngine(LintPass(), cache=cache).run_paths([str(path)])
        old_scope = os.path.join(root, "pdc-lint", scope_id(LintPass()))
        assert os.path.isdir(old_scope)

        monkeypatch.setattr(LintPass, "version", "999-test")
        engine = AnalysisEngine(LintPass(), cache=cache)
        # Construction invalidates the old-version scope explicitly.
        assert not os.path.isdir(old_scope)
        report = engine.run_paths([str(path)])
        assert {f.rule for f in report.findings} == {"PDC101"}
        assert engine.stats()["engine.cache.hits"] == 0
        assert engine.stats()["engine.files.analyzed"] == 1

    def test_same_version_other_config_survives_pruning(self, tmp_path):
        path = tmp_path / "prog.py"
        path.write_text(RACY)
        cache = FindingsCache(str(tmp_path / "cache"))
        AnalysisEngine(LintPass(), cache=cache).run_paths([str(path)])
        AnalysisEngine(LintPass(select=["PDC2"]), cache=cache).run_paths(
            [str(path)]
        )
        # Re-opening either config still hits: neither pruned the other.
        again = AnalysisEngine(LintPass(), cache=cache)
        again.run_paths([str(path)])
        assert again.stats()["engine.cache.hits"] == 1


class TestContentAddressing:
    def test_identical_content_at_two_paths_shares_one_entry(self, tmp_path):
        a = tmp_path / "a_first.py"
        b = tmp_path / "z_second.py"
        a.write_text(RACY)
        b.write_text(RACY)
        cache = FindingsCache(str(tmp_path / "cache"))
        engine = AnalysisEngine(LintPass(), cache=cache)
        report = engine.run_paths([str(a), str(b)])
        # One analysis, one hit — but findings cite each file's own path.
        assert engine.stats()["engine.files.analyzed"] == 1
        assert engine.stats()["engine.cache.hits"] == 1
        assert [f.path for f in report.findings] == [str(a), str(b)]
        assert len({f.line for f in report.findings}) == 1

    def test_digest_is_content_plus_salt(self):
        assert content_digest(b"x") == content_digest(b"x")
        assert content_digest(b"x") != content_digest(b"y")
        assert content_digest(b"x", "salt") != content_digest(b"x")

    def test_memory_cache_rebases_like_disk(self):
        pass_ = LintPass()
        cache = MemoryCache()
        engine = AnalysisEngine(pass_, cache=cache)
        first = engine.run([WorkUnit.source("<sub:ex1>", RACY)])
        second = engine.run([WorkUnit.source("<sub:ex2>", RACY)])
        assert engine.stats()["engine.cache.hits"] == 1
        assert [f.path for f in first.findings] == ["<sub:ex1>"]
        assert [f.path for f in second.findings] == ["<sub:ex2>"]

    def test_memory_cache_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(engine_cache, "MEMORY_CACHE_ENTRIES", 3)
        pass_ = LintPass()
        cache = MemoryCache()
        engine = AnalysisEngine(pass_, cache=cache)
        sources = [f"{RACY}\n# variant {i}\n" for i in range(4)]
        for i in range(3):
            engine.run([WorkUnit.source(f"v{i}.py", sources[i])])
        # Reading v0 makes it recent, so v1 is the one evicted by v3.
        engine.run([WorkUnit.source("v0.py", sources[0])])
        engine.run([WorkUnit.source("v3.py", sources[3])])
        assert len(cache._entries) == 3

        def hit(i):
            before = engine.stats()["engine.cache.hits"]
            engine.run([WorkUnit.source(f"v{i}.py", sources[i])])
            return engine.stats()["engine.cache.hits"] > before

        assert [hit(i) for i in (0, 2, 3, 1)] == [True, True, True, False]


class TestMutation:
    def test_editing_one_file_reanalyzes_exactly_that_file(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        n = 12
        for i in range(n):
            (tree / f"mod_{i:02d}.py").write_text(
                CLEAN.replace("counter", f"counter_{i}")
            )
        cache = FindingsCache(str(tmp_path / "cache"))
        AnalysisEngine(LintPass(), cache=cache).run_paths([str(tree)])

        target = tree / "mod_07.py"
        target.write_text(RACY.replace("counter", "counter_7"))
        engine = AnalysisEngine(LintPass(), cache=cache)
        report = engine.run_paths([str(tree)])
        stats = engine.stats()
        assert stats["engine.files.analyzed"] == 1
        assert stats["engine.cache.hits"] == n - 1
        assert [f.path for f in report.findings] == [str(target)]

    def test_touch_without_edit_still_hits(self, tmp_path):
        path = tmp_path / "prog.py"
        path.write_text(CLEAN)
        cache = FindingsCache(str(tmp_path / "cache"))
        AnalysisEngine(LintPass(), cache=cache).run_paths([str(path)])
        os.utime(path)  # mtime changes, bytes do not
        engine = AnalysisEngine(LintPass(), cache=cache)
        engine.run_paths([str(path)])
        assert engine.stats()["engine.cache.hits"] == 1
