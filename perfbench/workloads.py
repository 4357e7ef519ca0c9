"""The four workloads: seeded inputs, one timed item, one output check.

Each workload is a closed loop of one client: the next item starts when
the previous one has been checked.  Every input derives from the
workload seed in a fixed order, and the seed changes bytes but never
cost: it picks survey seeds, project order and student comments, while
the shape of every item stays the same.
"""

from __future__ import annotations

import hashlib
import os
import random
from typing import Any, Dict, FrozenSet, List, NamedTuple, Set, Tuple

from perfbench import expectations as expect

#: Pool width for the fan-out sites: at most two workers.
JOBS = min(2, os.cpu_count() or 1)


class Workload:
    """One benchmark workload.  ``setup`` prepares everything an item
    needs, ``warmup`` runs one untimed item, ``item`` is the timed unit
    of work, ``check`` compares its output with the expectations and
    ``reset`` undoes, untimed, what the item changed."""

    name = ""
    #: Work units one item adds to ``throughput_per_s``.
    units_per_item = 1

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def warmup(self) -> bool:
        ok = self.check(-1, self.item(-1))
        self.reset(-1)
        return ok

    def item(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, output: Any) -> bool:
        raise NotImplementedError

    def reset(self, i: int) -> None:
        """Return to the state set-up left, so every item starts from it."""


# -- survey ------------------------------------------------------------------


def aggregate_digest(agg: Any) -> str:
    """A digest of every field of a ``SurveyAggregate``."""
    import numpy as np

    h = hashlib.sha256(f"{agg.num_programs}:{agg.dedicated_programs}".encode())
    for values, dtype in (
        (agg.topic_weights, "<f8"),
        (agg.topic_counts, "<i8"),
        (agg.course_type_counts, "<i8"),
    ):
        h.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


class Survey(Workload):
    """One item is one sharded §III survey of ``SURVEY_N`` programs."""

    name = "survey"
    units_per_item = expect.SURVEY_N

    def setup(self, seed: int, workdir: str) -> None:
        from repro.core import pipeline

        self._pipeline = pipeline
        self.order = sorted(expect.SURVEY_DIGESTS)
        random.Random(seed).shuffle(self.order)

    def survey_seed(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def item(self, i: int) -> Any:
        return self._pipeline.shard_survey(
            expect.SURVEY_N,
            seed=self.survey_seed(i),
            chunk_size=expect.SURVEY_CHUNK,
            workers=JOBS,
            backend="process",
        )

    def check(self, i: int, output: Any) -> bool:
        return (
            output.num_programs == expect.SURVEY_N
            and output.dedicated_programs == 1
            and aggregate_digest(output)
            == expect.SURVEY_DIGESTS[self.survey_seed(i)]
        )


# -- lint --------------------------------------------------------------------


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def project_module(g: int, k: int) -> str:
    return f"p{g:02d}_m{k:02d}"


def build_tree(seed: int, root: str) -> Dict[str, FrozenSet[str]]:
    """Write the seeded lint tree under ``root``; return each module's
    expected rule set.

    ``PROJECTS`` projects share one shape: an import chain of the
    ``CHAIN`` fixtures.  The cross-module fixture pairs sit beside them,
    their modules renamed so every module name in the tree is unique.
    """
    from repro.smp.fixtures import fixture, multifile_fixture

    expected: Dict[str, FrozenSet[str]] = {}
    for g in range(expect.PROJECTS):
        pdir = os.path.join(root, f"p{g:02d}")
        os.makedirs(pdir)
        for k, name in enumerate(expect.CHAIN):
            fix = fixture(name)
            head = f"# generated: tree seed {seed}, project {g}, link {k}\n"
            if k:
                head += f"import {project_module(g, k - 1)}\n"
            path = os.path.join(pdir, project_module(g, k) + ".py")
            _write(path, head + fix.source)
            expected[path] = fix.expect_rules
    for pair in expect.PAIRS:
        fix = multifile_fixture(pair)
        pdir = os.path.join(root, pair)
        os.makedirs(pdir)
        local = [fname[: -len(".py")] for fname, _ in fix.files]
        for fname, source in fix.files:
            for mod in local:
                source = source.replace(
                    f"import {mod}\n", f"import {pair}_{mod} as {mod}\n"
                )
            path = os.path.join(pdir, f"{pair}_{fname}")
            _write(path, f"# generated: tree seed {seed}, {pair}\n" + source)
            expected[path] = (
                fix.expect_ip_rules
                if fname == expect.PAIR_RACE_MODULE
                else frozenset()
            )
    return expected


class LintOutput(NamedTuple):
    report: Any
    text: str
    stats: Dict[str, Any]


def disk_caches(cache_dir: str) -> Tuple[Any, Any]:
    """On-disk findings and summary caches under ``cache_dir``."""
    from repro.analysis.engine import FindingsCache
    from repro.analysis.ip import SummaryCache
    from repro.analysis.ip.analyzer import IP_VERSION

    return FindingsCache(cache_dir), SummaryCache(cache_dir, IP_VERSION)


def memory_caches() -> Tuple[Any, Any]:
    """Fresh in-memory findings and summary caches."""
    from repro.analysis.engine import MemoryCache
    from repro.analysis.ip.cache import MemorySummaryCache

    return MemoryCache(), MemorySummaryCache()


def lint_tree(tree: str, caches: Tuple[Any, Any]) -> LintOutput:
    """One whole-program lint of ``tree`` through ``(findings cache,
    summary cache)``, rendered as the CLI renders it."""
    from repro.analysis.engine import LintPass, cli
    from repro.analysis.ip import WholeProgramEngine

    pass_ = LintPass()
    engine = WholeProgramEngine(
        pass_, cache=caches[0], summary_cache=caches[1], jobs=JOBS
    )
    report = engine.run_paths([tree])
    text = cli.render_report(pass_, "text", report)
    return LintOutput(report, text, engine.stats())


def check_lint(output: LintOutput, expected: Dict[str, FrozenSet[str]]) -> bool:
    """Findings per module match the fixtures' ground truth exactly."""
    got: Dict[str, set] = {}
    for finding in output.report.findings:
        got.setdefault(finding.path, set()).add(finding.rule)
    tail = output.text.splitlines()[-1]
    return (
        output.report.files == len(expected)
        and not output.report.errors
        and set(got) <= set(expected)
        and all(got.get(path, set()) == rules for path, rules in expected.items())
        and tail.startswith(
            f"{len(output.report.findings)} findings in {len(expected)} files"
        )
    )


class LintCold(Workload):
    """One item lints the whole tree into fresh, empty caches.

    The caches live in memory: creating a few hundred cache files per
    item on a journaling disk made an item's cost depend on how much
    journal work earlier items had left behind.  ``lint_edit`` keeps the
    on-disk caches, where reads dominate.
    """

    name = "lint_cold"

    def setup(self, seed: int, workdir: str) -> None:
        self.tree = os.path.join(workdir, "tree")
        self.expected = build_tree(seed, self.tree)
        self.units_per_item = len(self.expected)

    def item(self, i: int) -> LintOutput:
        return lint_tree(self.tree, memory_caches())

    def check(self, i: int, output: LintOutput) -> bool:
        return check_lint(output, self.expected)


class LintEdit(Workload):
    """One item edits one module, then re-lints the tree through the
    warm on-disk caches, as a CLI re-run after a save does."""

    name = "lint_edit"

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.tree = os.path.join(workdir, "tree")
        self.cache_dir = os.path.join(workdir, "cache")
        self.expected = build_tree(seed, self.tree)
        self.projects = list(range(expect.PROJECTS))
        random.Random(seed).shuffle(self.projects)
        self.base: Dict[str, str] = {}
        for g in self.projects:
            path = self.target(g)
            with open(path, encoding="utf-8") as fh:
                self.base[path] = fh.read()
        lint_tree(self.tree, disk_caches(self.cache_dir))  # fill the caches
        self.filled = self.cache_entries()

    def cache_entries(self) -> Set[str]:
        return {
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(self.cache_dir)
            for name in names
        }

    def target(self, g: int) -> str:
        return os.path.join(
            self.tree, f"p{g:02d}", project_module(g, expect.EDIT_POSITION) + ".py"
        )

    def item(self, i: int) -> LintOutput:
        # The base text plus one unique line: every item is a new digest
        # of a module that never grows.
        path = self.target(self.projects[i % len(self.projects)])
        self.rewrite(path, self.base[path] + f'EDIT_MARK = "{self.seed}:{i}"\n')
        return lint_tree(self.tree, disk_caches(self.cache_dir))

    def reset(self, i: int) -> None:
        # Put the module back and delete the entries the edit wrote.
        # Otherwise the cache directory grows by a dozen files an item,
        # and deleting tens of thousands of them at the end of a run
        # slows the file system for the next run's set-up.
        path = self.target(self.projects[i % len(self.projects)])
        self.rewrite(path, self.base[path])
        for entry in self.cache_entries() - self.filled:
            os.unlink(entry)

    @staticmethod
    def rewrite(path: str, text: str) -> None:
        # Unlinking first writes a new file instead of truncating one,
        # which some filesystems flush to disk eagerly.
        os.unlink(path)
        _write(path, text)

    def check(self, i: int, output: LintOutput) -> bool:
        return (
            check_lint(output, self.expected)
            and output.stats.get("engine.files.analyzed") == 1
            and output.stats.get("analysis.ip.summary.analyzed") == 1
            and output.stats.get("analysis.ip.scc.analyzed")
            == expect.CONES_PER_EDIT
        )


# -- grade -------------------------------------------------------------------

#: The two-lock "fix": each transfer takes both locks, in opposite orders.
ABBA_SOURCE = '''"""Transfer between two accounts — one lock per account."""
import threading

balance_a = 100
balance_b = 100
lock_a = threading.Lock()
lock_b = threading.Lock()


def move_ab() -> None:
    global balance_a, balance_b
    with lock_a:
        with lock_b:
            balance_a -= 10
            balance_b += 10


def move_ba() -> None:
    global balance_a, balance_b
    with lock_b:
        with lock_a:
            balance_b -= 10
            balance_a += 10


def main() -> int:
    first = threading.Thread(target=move_ab)
    second = threading.Thread(target=move_ba)
    first.start(); second.start()
    first.join(); second.join()
    return balance_a + balance_b
'''


def submission_sources() -> Dict[str, str]:
    """Source text of each submission kind."""
    from repro.pedagogy import model_checking_lab
    from repro.pedagogy.verifylab import RACY_TRANSFER_SOURCE

    return {
        "fix": model_checking_lab().reference,
        "racy": RACY_TRANSFER_SOURCE,
        "abba": ABBA_SOURCE,
        "starter": RACY_TRANSFER_SOURCE,
    }


def cohort_kind(seed: int, i: int) -> str:
    """Kind of submission ``i``: blocks of ``GRADE_BLOCK``, each a seeded
    shuffle, so any run prefix holds the mix in fixed proportions."""
    block, pos = divmod(i, len(expect.GRADE_BLOCK))
    kinds = list(expect.GRADE_BLOCK)
    random.Random(f"{seed}:{block}").shuffle(kinds)
    return kinds[pos]


def submission(seed: int, i: int, sources: Dict[str, str]) -> Tuple[str, str]:
    """``(kind, source)`` of submission ``i``.  Starter resubmissions are
    byte-identical; every other source carries its student's comment."""
    kind = cohort_kind(seed, i)
    if kind == "starter":
        return kind, sources[kind]
    return kind, f"# submitted by student {seed}-{i}\n" + sources[kind]


def check_grade(report: Any, eid: str, want: expect.GradeExpectation) -> bool:
    """Score, rules per stage, proof flag and a replay token per rule."""

    def rules(per_exercise: Dict[str, List[Any]]) -> FrozenSet[str]:
        return frozenset(f.rule for f in per_exercise.get(eid, []))

    stats = report.verify_stats.get(eid, {})
    tokens = stats.get("tokens", {})
    return (
        report.result_for(eid).fraction == want.fraction
        and rules(report.static_findings) == want.static_rules
        and rules(report.dynamic_findings) == want.dynamic_rules
        and rules(report.verify_findings) == want.verify_rules
        and stats.get("proved") == want.proved
        and frozenset(tokens) == want.verify_rules
        and all(token.startswith("v1:") for token in tokens.values())
    )


class Grade(Workload):
    """One item grades one submission to the model-checking lab with the
    static, sanitizer and verify stages on."""

    name = "grade"

    def setup(self, seed: int, workdir: str) -> None:
        from repro.pedagogy import Autograder, model_checking_lab

        lab = model_checking_lab()
        self.seed = seed
        self.eid = lab.exercise_id
        self.sources = submission_sources()
        self.grader = Autograder(
            [lab], static_precheck=True, sanitize=True, verify=True
        )

    def warmup(self) -> bool:
        # A starter submission: fills the lint and sanitizer memory
        # caches that later starter resubmissions hit.
        report = self.grader.grade("warmup", {self.eid: self.sources["starter"]})
        return check_grade(report, self.eid, expect.GRADE_EXPECT["starter"])

    def item(self, i: int) -> Any:
        _, source = submission(self.seed, i, self.sources)
        return self.grader.grade(f"student-{i}", {self.eid: source})

    def check(self, i: int, output: Any) -> bool:
        kind = cohort_kind(self.seed, i)
        return check_grade(output, self.eid, expect.GRADE_EXPECT[kind])


WORKLOADS = {w.name: w for w in (Survey, LintCold, LintEdit, Grade)}
