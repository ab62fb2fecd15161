#!/usr/bin/env python3
"""Golden-fixture tests for fresque_lint (run via ctest: fresque_lint_fixtures).

Each check gets at least one positive fixture (must fire) and one
negative fixture (must stay silent), parsed with the lite frontend —
the dependency-free reference engine. Fixtures are registered under
synthetic src/ paths because several checks scope themselves to src/.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as checks_mod
import frontend_lite
import srcmodel

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata")


def load(*fixtures):
    """Parses fixture files under synthetic src/ paths, returns the
    finalized Model. `fixtures` are (filename, synthetic_path) pairs or
    bare filenames (mapped to src/fixture/<name>)."""
    fe = frontend_lite.LiteFrontend()
    for fx in fixtures:
        if isinstance(fx, tuple):
            name, path = fx
        else:
            name, path = fx, f"src/fixture/{fx}"
        with open(os.path.join(TESTDATA, name), encoding="utf-8") as fh:
            fe.parse_file(path, fh.read())
    fe.model.finalize()
    return fe.model


def run(model, runner):
    """Runs a check and applies per-site suppressions, like the driver."""
    findings = runner(model)
    if isinstance(findings, tuple):  # lock-order returns (findings, graph)
        findings = findings[0]
    kept = []
    for f in findings:
        sf = model.files.get(f.file)
        if sf is not None and sf.suppressed(f.check, f.line):
            continue
        kept.append(f)
    return kept


class LockOrderTest(unittest.TestCase):
    def test_positive_abba_cycle(self):
        model = load("lock_order_bad.cc")
        findings, graph = checks_mod.run_lock_order(model)
        self.assertTrue(findings, "ABBA cycle must be reported")
        self.assertTrue(all(f.check == "lock-order" for f in findings))
        self.assertIn(("A::mu_", "B::mu_"), graph.edges)
        self.assertIn(("B::mu_", "A::mu_"), graph.edges)
        self.assertIsNone(checks_mod.topological_order(graph))

    def test_negative_consistent_order(self):
        model = load("lock_order_good.cc")
        findings, graph = checks_mod.run_lock_order(model)
        self.assertEqual(findings, [])
        self.assertIn(("A::mu_", "B::mu_"), graph.edges)
        order = checks_mod.topological_order(graph)
        self.assertIsNotNone(order)
        self.assertLess(order.index("A::mu_"), order.index("B::mu_"))

    def test_dag_rendering_is_deterministic(self):
        model = load("lock_order_good.cc")
        _, graph = checks_mod.run_lock_order(model)
        doc1 = checks_mod.render_lock_dag(graph)
        doc2 = checks_mod.render_lock_dag(graph)
        self.assertEqual(doc1, doc2)
        self.assertIn("`A::mu_` | `B::mu_`", doc1)


class RawSyncTest(unittest.TestCase):
    def test_positive_raw_mutex_outside_common(self):
        model = load(("raw_sync_bad.cc", "src/engine/raw_sync_bad.cc"))
        findings = run(model, checks_mod.run_raw_sync)
        kinds = {f.message.split(" ")[0] for f in findings}
        self.assertGreaterEqual(len(findings), 3)  # mutex, lock_guard, include
        self.assertIn("raw", kinds)
        self.assertTrue(any("#include <mutex>" in f.message
                            for f in findings))

    def test_negative_wrappers(self):
        model = load(("raw_sync_good.cc", "src/engine/raw_sync_good.cc"))
        self.assertEqual(run(model, checks_mod.run_raw_sync), [])

    def test_common_is_exempt(self):
        model = load(("raw_sync_bad.cc", "src/common/raw_sync_bad.cc"))
        self.assertEqual(run(model, checks_mod.run_raw_sync), [])


class HotAllocTest(unittest.TestCase):
    def test_positive_direct_and_transitive(self):
        model = load("hot_alloc_bad.cc")
        findings = run(model, checks_mod.run_hot_alloc)
        self.assertGreaterEqual(len(findings), 3)
        msgs = "\n".join(f.message for f in findings)
        self.assertIn("`new` allocation", msgs)
        self.assertIn("make_unique", msgs)
        self.assertIn("std::string label", msgs)
        self.assertTrue(any("Widget::Handle -> Widget::Helper" in m
                            for m in msgs.splitlines()))

    def test_negative_sanctioned_patterns(self):
        model = load("hot_alloc_good.cc")
        self.assertEqual(run(model, checks_mod.run_hot_alloc), [])


class DiscardedStatusTest(unittest.TestCase):
    def test_positive_value_ref_and_result(self):
        model = load("discarded_status_bad.cc")
        findings = run(model, checks_mod.run_discarded_status)
        self.assertEqual(len(findings), 3)
        called = sorted(f.message for f in findings)
        self.assertTrue(any("Put" in m for m in called))
        self.assertTrue(any("LastError" in m for m in called))
        self.assertTrue(any("Get" in m for m in called))

    def test_negative_consumed_and_void_cast(self):
        model = load("discarded_status_good.cc")
        self.assertEqual(run(model, checks_mod.run_discarded_status), [])


class GuardedByTest(unittest.TestCase):
    def test_positive_unannotated_mutated_fields(self):
        model = load("guarded_by_bad.cc")
        findings = run(model, checks_mod.run_guarded_by)
        named = {f.message.split("`")[1] for f in findings}
        self.assertEqual(named, {"Counter::hits_", "Counter::values_"})

    def test_negative_annotated_const_atomic(self):
        model = load("guarded_by_good.cc")
        self.assertEqual(run(model, checks_mod.run_guarded_by), [])


class DupMetricTest(unittest.TestCase):
    def test_positive_kind_conflicts(self):
        model = load("dup_metric_bad.cc")
        findings = run(model, checks_mod.run_dup_metric)
        # Two conflicting names, one finding per kind involved.
        self.assertEqual(len(findings), 4)
        named = {f.message.split("`")[1] for f in findings}
        self.assertEqual(named, {"pipeline.depth", "queue.wait_ns"})
        msgs = "\n".join(f.message for f in findings)
        self.assertIn("Counter", msgs)
        self.assertIn("Gauge", msgs)
        self.assertIn("Histogram", msgs)

    def test_negative_same_kind_and_dynamic_names(self):
        model = load("dup_metric_good.cc")
        self.assertEqual(run(model, checks_mod.run_dup_metric), [])


class SuppressionTest(unittest.TestCase):
    def test_allow_silences_line_above_and_same_line(self):
        model = load("suppression.cc")
        findings = run(model, checks_mod.run_hot_alloc)
        self.assertEqual(findings, [], "documented allows must suppress")

    def test_reasonless_allow_does_not_suppress(self):
        model = load("suppression.cc")
        findings = run(model, checks_mod.run_discarded_status)
        self.assertEqual(len(findings), 1)
        self.assertIn("Ping", findings[0].message)

    def test_bad_suppressions_are_reported(self):
        model = load("suppression.cc")
        sf = next(iter(model.files.values()))
        reasonless = [s for s in sf.suppressions.values() if not s.reason]
        unknown = [s for s in sf.suppressions.values()
                   if s.checks - set(srcmodel.ALL_CHECKS)]
        self.assertEqual(len(reasonless), 1)
        self.assertEqual(len(unknown), 1)


class RepoInvariantsTest(unittest.TestCase):
    """The real tree must stay clean and its lock graph acyclic — the
    same gate the CI job runs, kept here so plain ctest exercises it."""

    ROOT = os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
    )

    def _model(self):
        rel = []
        for dirpath, _, files in os.walk(os.path.join(self.ROOT, "src")):
            for name in sorted(files):
                if name.endswith((".h", ".cc")):
                    rel.append(os.path.relpath(
                        os.path.join(dirpath, name), self.ROOT))
        fe = frontend_lite.LiteFrontend()
        model = fe.parse_files(self.ROOT, sorted(rel))
        model.finalize()
        return model

    def test_repo_lock_graph_is_dag(self):
        model = self._model()
        findings, graph = checks_mod.run_lock_order(model)
        self.assertEqual(findings, [])
        self.assertIsNotNone(checks_mod.topological_order(graph))
        # A deliberate nesting must stay visible: the snapshot cut takes
        # the server's lock under the snapshot manager's.
        self.assertIn(("SnapshotManager::mu_", "CloudServer::mu_"),
                      graph.edges)

    def test_repo_is_clean_modulo_documented_suppressions(self):
        model = self._model()
        for runner in (
            checks_mod.run_raw_sync,
            checks_mod.run_hot_alloc,
            checks_mod.run_discarded_status,
            checks_mod.run_guarded_by,
            checks_mod.run_dup_metric,
        ):
            self.assertEqual(run(model, runner), [],
                             f"{runner.__name__} must be clean")


if __name__ == "__main__":
    unittest.main(verbosity=2)
