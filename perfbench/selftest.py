#!/usr/bin/env python3
"""Self-tests of the benchmark: the reference checker, the paper-gap
arithmetic, the wall and set-up reductions and the shape of every
workload. run.py runs them before every measurement; run them alone with

    python3 perfbench/selftest.py PATH/TO/perfbench-binary
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True

import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = None  # set by run()

# Stated shape of each workload: point labels, then per-point settings.
SHAPES = {
    "xbar-fig6": dict(
        labels=["fig6a/single-source", "fig6a/no-reserv. (256)", "fig6a/frag 128",
                "fig6a/frag 64", "fig6a/frag 32", "fig6a/frag 16", "fig6a/frag 8",
                "fig6a/frag 4", "fig6a/frag 2", "fig6a/frag 1", "fig6b/baseline",
                "fig6b/1/1", "fig6b/1/2", "fig6b/1/3", "fig6b/1/4", "fig6b/1/5",
                "fig6a/frag 1" + metrics.FULL, "fig6b/1/5" + metrics.FULL,
                "fig6a/no-reserv. (256)" + metrics.FULL],
        fabric="cheshire", shards=1, monitors=False,
        untimed={"fig6a/frag 1" + metrics.FULL, "fig6b/1/5" + metrics.FULL,
                 "fig6a/no-reserv. (256)" + metrics.FULL}),
    "ring-serial": dict(
        labels=["N=%d %s" % (n, k) for n in (6, 12, 24, 48) for k in ("solo", "hog", "budget")],
        fabric="ring", shards=1, link_latency=1, monitors=False),
    "mesh16-s4-mon": dict(
        labels=["16x16 solo", "16x16 hog128", "16x16 budget128"],
        fabric="mesh", shards=4, link_latency=1, partition="stripe", monitors=True),
    "mesh32-s4-l4": dict(
        labels=["32x32 solo", "32x32 hog256", "32x32 budget256"],
        fabric="mesh", shards=4, link_latency=4, partition="balanced", monitors=False),
}

# run_cycles of the Fig. 6 points that the gap scores, as measured when the
# benchmark was defined: perf(frag 1) = 89.14 %, perf(1/5) = 98.92 %.
FIG6_RUN_CYCLES = {
    "fig6a/single-source": 87286, "fig6a/frag 1" + metrics.FULL: 97915,
    "fig6b/baseline": 87286, "fig6b/1/5" + metrics.FULL: 88236,
    "fig6a/no-reserv. (256)" + metrics.FULL: 3127655,
}


def points(workload, seed=1):
    out = subprocess.run([BINARY, "points", workload, "--seed", str(seed)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def reference(workload):
    with open(os.path.join(HERE, "reference", workload + ".json")) as f:
        return json.load(f)["points"]


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.point = points("mesh16-s4-mon")[1]
        self.ref = reference("mesh16-s4-mon")[1]
        self.result = dict(copy.deepcopy(self.ref), kind="result", point=1, traced=False,
                           seed=self.point["seed"], wall_seconds=1.0, ticks_executed=5,
                           shard_ticks_executed=[1, 2, 1, 1], profile=[])

    def test_matching_result_passes(self):
        self.assertEqual(metrics.check_result(self.result, self.point, self.ref), [])

    def test_host_fields_are_not_checked(self):
        self.result.update(wall_seconds=9.0, fast_forwarded_cycles=7, ticks_skipped=3)
        self.assertEqual(metrics.check_result(self.result, self.point, self.ref), [])

    def test_perturbed_semantic_field_is_flagged(self):
        for key in ("run_cycles", "mon_lat_p99", "mgr_p99"):
            bad = copy.deepcopy(self.result)
            if isinstance(bad[key], list):
                bad[key][-1] += 1
            else:
                bad[key] += 1
            problems = metrics.check_result(bad, self.point, self.ref)
            self.assertEqual(len(problems), 1, key)
            self.assertTrue(problems[0].startswith(key + ":"), problems)

    def test_failed_boot_is_flagged(self):
        self.result["boot_ok"] = False
        problems = metrics.check_result(self.result, self.point, self.ref)
        self.assertIn("boot failed", problems)

    def test_unexpected_timeout_is_flagged(self):
        solo_point, solo_ref = points("mesh16-s4-mon")[0], reference("mesh16-s4-mon")[0]
        bad = dict(solo_ref, timed_out=True, seed=solo_point["seed"])
        self.assertTrue(any(p.startswith("timed_out") for p in
                            metrics.check_result(bad, solo_point, solo_ref)))

    def test_missing_field_is_flagged(self):
        del self.result["mgr_occ_milli"]
        self.assertEqual(len(metrics.check_result(self.result, self.point, self.ref)), 1)


class FidelityTest(unittest.TestCase):
    def by_label(self, latency=11):
        out = {k: {"run_cycles": v} for k, v in FIG6_RUN_CYCLES.items()}
        out["fig6b/1/5" + metrics.FULL]["load_lat_max"] = latency
        return out

    def test_gap_reproduces_measured_value(self):
        f = metrics.fig6_fidelity(self.by_label())
        self.assertEqual(round(f["fig6_paper_gap_pt"], 2), 20.94)
        self.assertEqual(round(f["frag1_perf_pct"], 2), 89.14)
        self.assertEqual(round(f["budget_1_5_perf_pct"], 2), 98.92)
        self.assertEqual(round(f["unscored"]["no_reservation_perf_pct"]["measured"], 2), 2.79)
        self.assertEqual(f["unscored"]["budget_1_5_worst_latency_cycles"]["measured"], 11)

    def test_budget_claim_scores_only_its_shortfall(self):
        cycles = self.by_label()
        cycles["fig6b/1/5" + metrics.FULL]["run_cycles"] = round(87286 / 0.90)  # perf 90 %: 5 pt short
        f = metrics.fig6_fidelity(cycles)
        self.assertAlmostEqual(f["fig6_paper_gap_pt"] - (89.1447 - 68.2), 5.0, places=2)

    def test_reference_reads_the_same_gap(self):
        by_label = {r["label"]: r for r in reference("xbar-fig6")}
        self.assertEqual(round(metrics.fig6_fidelity(by_label)["fig6_paper_gap_pt"], 2), 20.94)


class ReductionTest(unittest.TestCase):
    def test_setup_sums_each_points_fastest_round(self):
        def setup(rep, point, build):
            return dict(kind="setup", rep=rep, point=point, build_s=build, preload_s=0.5,
                        boot_s=0.25, boot_ok=True)
        setups = [setup(0, 0, 3.0), setup(0, 1, 1.0), setup(1, 0, 2.0), setup(1, 1, 4.0)]
        self.assertEqual(metrics.setup_sums(setups), 2.75 + 1.75)
        self.assertEqual(metrics.setup_sums(setups, ("build_s",)), 2.0 + 1.0)

    def test_rate_uses_each_points_fastest_wall(self):
        results = [dict(point=p, wall_seconds=w, simulated_cycles=c)
                   for p, w, c in ((0, 2.0, 100), (1, 1.0, 50), (0, 1.0, 100), (1, 3.0, 50))]
        self.assertEqual(metrics.cycles_per_s({0, 1}, results), 150 / 2.0)
        self.assertEqual(metrics.cycles_per_s({1}, results), 50 / 1.0)


class HostFactorTest(unittest.TestCase):
    def test_factor_is_fastest_probe_over_reference(self):
        ref = metrics.PROBE_REF_S
        self.assertEqual(metrics.host_factor([3 * ref, 2 * ref, 4 * ref]), 2.0)

    def test_factor_scales_times_and_nothing_else(self):
        points = [dict(point=0, interference=1), dict(point=1, interference=0)]
        results = [dict(point=0, wall_seconds=2.0, simulated_cycles=100),
                   dict(point=1, wall_seconds=1.0, simulated_cycles=10)]
        setups = [dict(point=0, build_s=1.0, preload_s=0.0, boot_s=0.0)]
        scaled = metrics.end_to_end(points, results, setups, 5.0, 2.0)
        self.assertEqual(scaled, {"sim_cycles_per_s": (100.0, "cycles/s"),
                                  "solo_cycles_per_s": (20.0, "cycles/s"),
                                  "setup_s": (0.5, "s"), "peak_rss_mb": (5.0, "MB")})
        self.assertEqual(metrics.end_to_end(points, results, setups, 5.0)["setup_s"], (1.0, "s"))


class WorkloadShapeTest(unittest.TestCase):
    def test_each_workload_yields_its_named_points(self):
        for name, shape in SHAPES.items():
            pts = points(name)
            self.assertEqual([p["label"] for p in pts], shape["labels"], name)
            self.assertEqual(len(reference(name)), len(pts), name)
            # The metrics need both a solo and a contended point.
            self.assertEqual({p["interference"] > 0 for p in pts}, {False, True}, name)
            for p in pts:
                where = "%s/%s" % (name, p["label"])
                self.assertEqual(p["fabric"], shape["fabric"], where)
                self.assertEqual(p["shards"], shape["shards"], where)
                self.assertLessEqual(max(p["shards"], p["shard_workers"]), 4, where)
                self.assertEqual(p["monitors"], shape["monitors"], where)
                untimed = p["label"] in shape.get("untimed", ())
                self.assertEqual(p["timed"], not untimed, where)
                # Every timed contended point stops at a horizon.
                self.assertEqual(p["horizon_capped"], p["interference"] > 0 and not untimed,
                                 where)
                if "link_latency" in shape:
                    self.assertEqual(p["link_latency"], shape["link_latency"], where)
                if "partition" in shape:
                    self.assertEqual(p["partition"], shape["partition"], where)
                if shape["shards"] > 1:
                    self.assertEqual(p["shard_workers"], 2, where)

    def test_mesh_solo_victims_are_lengthened(self):
        for name in ("mesh16-s4-mon", "mesh32-s4-l4"):
            solo = points(name)[0]
            self.assertEqual(solo["interference"], 0)
            self.assertGreater(solo["victim_bytes"], 0x800, name)

    def test_seed_feeds_every_point(self):
        for name in SHAPES:
            a, b = points(name, 1), points(name, 2)
            self.assertEqual(a, points(name, 1), name)
            self.assertTrue(all(x["seed"] != y["seed"] for x, y in zip(a, b)), name)


def run(binary):
    """Runs every self-test against the given `perfbench` binary; True on success."""
    global BINARY
    BINARY = binary
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    return unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite).wasSuccessful()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(0 if run(os.path.abspath(sys.argv[1])) else 1)
