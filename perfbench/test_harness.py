"""Self-tests of the benchmark harness (standard library only).

    python3 perfbench/test_harness.py

They cover the tail-percentile choice, self-time arithmetic on synthetic
spans, wrapper installation and removal, generator determinism, and that a
perturbed digest or a wrong sizing answer counts as a failed job.
"""

import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gridfreq  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _tmpdir():
    state = HERE.parent / ".perfbench"
    state.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=state)


def _span(name, layer, parent, t0, t1, counts=None):
    return [name, layer, parent, 0, t0, t1, counts]


class TailTest(unittest.TestCase):
    def test_percentile_leaves_ten_samples_beyond(self):
        for n, pct in ((11, 100.0 / 11), (20, 50.0), (100, 90.0),
                       (1000, 99.0)):
            samples = [float(i) for i in range(n)]
            random.Random(n).shuffle(samples)
            value, got = run.tail(samples)
            self.assertAlmostEqual(got, pct)
            self.assertEqual(sum(s > value for s in samples), 10)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        rec = tracer.Recorder(clock=lambda: next(ticks))
        with rec.job_span(0):
            a = rec.open("a", "engine")
            b = rec.open("b", "metrics")
            rec.close(b)
            rec.close(a)
            c = rec.open("c", "csvio.write")
            rec.close(c)
        self.assertEqual(tracer.self_times(rec.spans), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual([s[tracer.PARENT] for s in rec.spans],
                         [None, 0, 1, 0])

    def test_overlapping_children_are_counted_once(self):
        spans = [_span("p", "headroom", None, 0.0, 10.0),
                 _span("x", "engine", 0, 1.0, 5.0),
                 _span("y", "engine", 0, 3.0, 7.0),
                 _span("z", "engine", 0, 9.0, 12.0)]
        self.assertEqual(tracer.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_layer_self_times_account_for_job_time(self):
        run_counts = {"steps": 100, "samples": 51, "sim_s": 0.5}
        spans = [_span("job", "bench", None, 0.0, 10.0),
                 _span("sizer", "headroom", 0, 0.5, 9.5,
                       {"unattainable": 0}),
                 _span("run", "engine", 1, 1.0, 4.0, run_counts),
                 _span("m", "metrics", 2, 3.0, 3.5),
                 _span("run", "engine", 1, 5.0, 8.0, run_counts)]
        m = tracer.layer_metrics(spans)
        self.assertEqual(m["headroom.runs"], 2)
        self.assertEqual(m["headroom.runs_per_sizing"], 2)
        self.assertEqual(m["headroom.sim_s_per_sizing"], 1.0)
        self.assertEqual(m["engine.steps"], 200)
        self.assertEqual(m["engine.self_s"], 5.5)
        self.assertEqual(m["headroom.self_s"], 3.0)
        self.assertEqual(m["engine.ns_per_step"], 5.5e9 / 200)
        layer_sum = sum(m[k] for k in ("engine.self_s", "headroom.self_s",
                                       "metrics.self_s", "bench.self_s"))
        self.assertAlmostEqual(layer_sum, 10.0)
        self.assertAlmostEqual(m["trace.layer_share"], 0.9)


class InstallTest(unittest.TestCase):
    def test_wrappers_count_and_are_removed(self):
        original = gridfreq.run_simulation
        inner = gridfreq.headroom.run_simulation
        scenario = gridfreq.preset_scenario("ei80", "droop")
        sim = gridfreq.SimConfig(t_end=6.0)
        rec = tracer.Recorder()
        with rec.installed():
            self.assertIsNot(gridfreq.run_simulation, original)
            with rec.job_span(0):
                trace = gridfreq.run_simulation(scenario, sim=sim)
        self.assertIs(gridfreq.run_simulation, original)
        self.assertIs(gridfreq.headroom.run_simulation, inner)
        m = tracer.layer_metrics(rec.spans)
        self.assertEqual(m["engine.runs"], 1)
        self.assertEqual(m["engine.steps"], 1200)
        self.assertEqual(m["engine.samples"], len(trace))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        with _tmpdir() as tmp:
            for name in workloads.WORKLOADS:
                first = workloads.generate(name, 7, Path(tmp))
                again = workloads.generate(name, 7, Path(tmp))
                other = workloads.generate(name, 8, Path(tmp))
                self.assertEqual(repr(first), repr(again))
                self.assertNotEqual(repr(first), repr(other))

    def test_reference_covers_default_pool(self):
        with _tmpdir() as tmp:
            for name in workloads.WORKLOADS:
                cases = workloads.generate(name, workloads.DEFAULT_SEED,
                                           Path(tmp))
                self.assertEqual(len(workloads.load_reference(name)),
                                 len(cases))


class FailureTest(unittest.TestCase):
    def _failed(self, name, index, reference_outcome):
        with _tmpdir() as tmp:
            cases = workloads.generate(name, workloads.DEFAULT_SEED,
                                       Path(tmp))[index:index + 1]
            tally = worker.Tally()
            worker.verify_pass(workloads.WORKLOADS[name], cases,
                               [reference_outcome], tally)
        return tally.failed

    def test_perturbed_digest_fails(self):
        ref = dict(workloads.load_reference("study")[0])
        self.assertEqual(self._failed("study", 0, ref), 0)
        digest = ref["trace_sha256"]
        ref["trace_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        self.assertEqual(self._failed("study", 0, ref), 1)

    def test_wrong_sizing_answer_fails(self):
        refs = workloads.load_reference("sizing")
        index = next(i for i, r in enumerate(refs)
                     if r.get("headroom", 0.0) > 0.0)
        ref = dict(refs[index])
        self.assertEqual(self._failed("sizing", index, ref), 0)
        ref["headroom"] += 10 * workloads.SIZING_TOLERANCE
        self.assertEqual(self._failed("sizing", index, ref), 1)
        self.assertEqual(self._failed("sizing", index,
                                      {"error": "UnattainableError"}), 1)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_produced(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, {k: u for k, u in run.END_TO_END_UNITS.items()
                               if k not in run.NOT_IN_RESULT})
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, run.LAYER_UNITS)
        produced = set(tracer.layer_metrics([])) | {
            "setup.import_s", "trace.overhead_ratio"}
        self.assertEqual(produced, set(run.LAYER_UNITS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(tuple(run.WORKLOADS), tuple(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
