"""Self-tests of the benchmark harness: python3 perfbench/selftest.py (from the repo root)."""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from transdolbeault import cli, cohomology, linalg  # noqa: E402

ABELIAN4 = workloads.Spec("abelian4", (("abelian2n", 2),), unit=1, min_ops=1, fixed_ops=1,
                          abelian_m=2)
SMALL_CENSUS = workloads.Spec("census3", workloads.CENSUS_ALGEBRAS[:3], unit=3, min_ops=3,
                              fixed_ops=3)


def _traced_counts(spec):
    tracing.clear_caches()
    work = workloads.Workload(spec, 0, ROOT / ".bench_build" / "perfbench")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k in range(spec.fixed_ops):
            tracer.op = k
            assert not work.run_op(k).problems
    finally:
        tracer.uninstall()
        work.close()
    timed = ("_s", "report_share", "overhead_ratio")  # derived from clock readings
    return {k: v for k, (v, _) in tracing.layer_metrics(tracer, 1.0).items()
            if not k.endswith(timed)}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        tr = tracing.Tracer()
        # A [0,10] > B [1,4] > D [2,3];  A > C [5,7]
        for name, parent, start, end in (("cli.execute", -1, 0, 10), ("B", 0, 1, 4),
                                         ("D", 1, 2, 3), ("C", 0, 5, 7)):
            tr.span_name.append(tr._name_id(name))
            tr.span_op.append(0)
            tr.span_parent.append(parent)
            tr.span_start.append(start)
            tr.span_end.append(end)
        st = tr.stats()
        self.assertEqual({n: st[n]["self_s"] for n in st},
                         {"cli.execute": 5, "B": 2, "D": 1, "C": 2})
        self.assertEqual(st["B"]["total_s"], 3)
        self.assertEqual(tr.report_shares(), {"B": 0.3, "D": 0.1, "C": 0.2})


class OutputChecks(unittest.TestCase):
    def test_clean_abelian_op_passes(self):
        work = workloads.Workload(ABELIAN4, 0, None)
        self.assertEqual(work.run_op(0).problems, [])

    def test_corrupted_abelian_cell_fails_the_op(self):
        real = cli.execute

        def corrupt(config):
            status, text = real(config)
            if config.command == "report":
                doc = json.loads(text)
                doc["tables"]["cw"]["1,1"] += 1
                text = json.dumps(doc)
            return status, text

        work = workloads.Workload(ABELIAN4, 0, None)
        cli.execute = corrupt
        try:
            res = work.run_op(0)
        finally:
            cli.execute = real
        self.assertTrue(any("abelian cw" in p for p in res.problems), res.problems)

    def test_mu_bar_duality_mismatch_is_reported(self):
        doc = {"p0_check": "pass", "tables": {"mu_bar": {"0,0": 1, "0,1": 2, "1,0": 2, "1,1": 1}}}
        self.assertEqual(workloads.check_report(doc), [])
        doc["tables"]["mu_bar"]["0,1"] = 3
        self.assertEqual(len(workloads.check_report(doc)), 2)

    def test_digest_ignores_non_mathematical_fields(self):
        doc = {"classification": {"class": "Integrable"}, "flag_dims": [0], "tables": {}}
        self.assertEqual(workloads.digest(doc), workloads.digest(dict(doc, duality_check="pass")))


class Wrapping(unittest.TestCase):
    def test_discovery_finds_every_declared_lru_cache(self):
        self.assertEqual(set(tracing.discover_lru_caches()), tracing.declared_lru_caches())

    def test_install_binds_every_import_site_and_restores(self):
        originals = {name: fn for name, fn in tracing.discover_lru_caches().items()}
        kernel = linalg.kernel
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(linalg.kernel, kernel)
            self.assertIs(cohomology.kernel, linalg.kernel)
            for mod in tracing.package_modules():
                for attr, val in vars(mod).items():
                    self.assertFalse(any(val is fn for fn in originals.values()),
                                     f"{mod.__name__}.{attr} still unwrapped")
            cohomology.transverse_module.cache_clear()
            self.assertEqual(cohomology.transverse_module.cache_info().currsize, 0)
        finally:
            tr.uninstall()
        self.assertIs(linalg.kernel, kernel)
        self.assertIs(cohomology.kernel, kernel)
        self.assertEqual(tracing.discover_lru_caches(), originals)

    def test_counts_repeat_exactly(self):
        first = _traced_counts(SMALL_CENSUS)
        self.assertGreater(first["scalars.bool.calls"], 0)
        self.assertEqual(first, _traced_counts(SMALL_CENSUS))


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_per_layer_metrics(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(names, list(tracing.layer_metrics(tracing.Tracer(), 1.0)))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.SPECS))

    def test_bare_directory_exits_nonzero_without_result(self):
        bare = ROOT / ".bench_build" / "perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
