"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

They check that workload generation depends only on the seed, that the
output gate catches a single corrupted byte, that span self times add up on
a synthetic tree, and that the tracer's wrappers are seen from every module
that imported the wrapped name.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import types
import unittest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))


class WorkloadTests(unittest.TestCase):
    def test_same_seed_same_inputs_and_order(self):
        for name in workloads.WORKLOADS:
            inv_a, rng_a = workloads.build(name, 7)
            inv_b, rng_b = workloads.build(name, 7)
            self.assertEqual(inv_a, inv_b)
            for _ in range(3):
                self.assertEqual(workloads.next_pass(inv_a, rng_a), workloads.next_pass(inv_b, rng_b))

    def test_seed_changes_cold_sweep_samples(self):
        samples = {tuple(map(tuple, workloads.build("cold_sweep", s)[0])) for s in range(5)}
        self.assertGreater(len(samples), 1)

    def test_every_seed_is_fully_gated(self):
        expected = run.load_expected()
        for name in workloads.WORKLOADS:
            for seed in range(50):
                for inv in workloads.build(name, seed)[0]:
                    self.assertIn(run.key(inv), expected)

    def test_cold_sweep_run_reaches_p90_sample_count(self):
        per_pass = len(workloads.build("cold_sweep", 0)[0])
        self.assertGreaterEqual(per_pass * run.MIN_PASSES, run.P90_MIN_INVOCATIONS)


class GateTests(unittest.TestCase):
    ARGV = ["core", "--p", "3", "--partition", "4,2,1"]

    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.expected = run.load_expected()
        self.row = run.run_invocation(self.ARGV, False, 60.0)

    def test_recorded_output_passes(self):
        self.assertTrue(run.gate(self.expected, self.row))

    def test_corrupted_byte_fails(self):
        cmd = [sys.executable, str(run.CHILD), "--", *self.ARGV]
        out = subprocess.run(cmd, capture_output=True, check=True, env=run.child_env()).stdout
        self.assertEqual(hashlib.sha256(out).hexdigest(), self.row["sha256"])
        for i in (0, len(out) // 2, len(out) - 1):
            bad = bytearray(out)
            bad[i] ^= 1
            row = dict(self.row, sha256=hashlib.sha256(bytes(bad)).hexdigest())
            self.assertFalse(run.gate(self.expected, row))

    def test_exit_code_and_traceback_fail(self):
        self.assertFalse(run.gate(self.expected, dict(self.row, exit=3)))
        self.assertFalse(run.gate(self.expected, dict(self.row, stderr=["Traceback (most recent call last):"])))
        self.assertFalse(run.gate(self.expected, dict(self.row, argv=["core", "--p", "97"])))

    def test_refuses_checkout_without_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "heavy", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class SpanTests(unittest.TestCase):
    def test_self_time_on_nested_tree(self):
        now = [0]
        tr = tracer.Tracer(clock=lambda: now[0])
        ns = types.SimpleNamespace()

        def leaf(d):
            now[0] += d

        def mid():
            now[0] += 1
            ns.leaf(2)
            now[0] += 3
            ns.leaf(4)

        def top():
            now[0] += 5
            ns.mid()
            now[0] += 6
            ns.leaf(7)

        for fn in (leaf, mid, top):
            setattr(ns, fn.__name__, tr.wrap(f"m.{fn.__name__}", fn))
        ns.top()
        self.assertEqual(tr.spans, {
            ("m.top", tracer.ROOT): [1, 28, 11],
            ("m.mid", "m.top"): [1, 10, 4],
            ("m.leaf", "m.mid"): [2, 6, 6],
            ("m.leaf", "m.top"): [1, 7, 7],
        })
        spans = tr.snapshot()["spans"]
        self.assertEqual(tracer.self_times(spans), {"m": 28})

    def test_recursion_counts_time_once(self):
        now = [0]
        tr = tracer.Tracer(clock=lambda: now[0])
        ns = types.SimpleNamespace()

        def f(n):
            now[0] += 1
            if n:
                ns.f(n - 1)

        ns.f = tr.wrap("m.f", f)
        ns.f(3)
        spans = tr.snapshot()["spans"]
        self.assertEqual(tracer.self_times(spans), {"m": 4})
        self.assertEqual(tr.spans[("m.f", tracer.ROOT)], [1, 4, 1])


class WrapperTests(unittest.TestCase):
    def test_wrapped_name_seen_from_every_importer(self):
        import blockiso
        from blockiso import isometry, modular, symchar, wreath

        importers = (blockiso, wreath, isometry, modular)
        original = symchar.character_value
        tr = tracer.Tracer()
        tr.install(tracer.package_modules("blockiso"))
        try:
            wrapped = symchar.character_value
            self.assertIsNot(wrapped, original)
            for mod in importers:
                self.assertIs(mod.character_value, wrapped, mod.__name__)
            # `perfect` imports it inside its functions, at call time.
            from blockiso.symchar import character_value

            self.assertIs(character_value, wrapped)
            wreath.irr_base_values((2, 1), 3)
            self.assertEqual(tr.spans[("symchar.character_value", "wreath.irr_base_values")][0], 3)
            self.assertIn("symchar._mn", tr.snapshot()["caches"])
        finally:
            tr.uninstall()
        for mod in (symchar,) + importers:
            self.assertIs(mod.character_value, original)


if __name__ == "__main__":
    unittest.main()
