"""Pure reductions of the `perfbench` binary's JSON records: the serial-reference
check, the paper-fidelity arithmetic and the benchmark's metrics.

Kept free of I/O so that selftest.py can exercise every rule on
hand-made records.
"""

import statistics

# ScenarioResult fields that describe the host, not the simulated system.
# They differ between runs, shard counts and traced/untraced runs; every
# other field must match the serial reference exactly. `seed` echoes the
# input and is checked against the point list instead.
HOST_FIELDS = frozenset({
    "wall_seconds", "ticks_executed", "ticks_skipped", "shard_ticks_executed",
    "shard_ticks_skipped", "fast_forwarded_cycles", "profile", "seed",
})
# Envelope keys `perfbench run` adds around each ScenarioResult.
ENVELOPE = frozenset({"kind", "point", "traced"})

# Fig. 6 of the paper (arXiv:2311.09662), as cited constants.
PAPER_FRAG1_PERF_PCT = 68.2     # Fig. 6a: fragmentation 1
PAPER_BUDGET_1_5_PERF_PCT = 95  # Fig. 6b: budget 1/5, lower bound
PAPER_BUDGET_1_5_WCL = 8        # Fig. 6b: 1/5 worst-case latency, upper bound (cycles)
PAPER_NO_RESERV_PCT = 0.7       # Fig. 6a: no reservation, upper bound
# Label suffix of the untimed full runs the fidelity report reads; the timed
# contended points stop at a horizon.
FULL = ", uncapped"

# Fastest time of the host-speed probe (`emit_probe`) on the host the
# benchmark was defined on: the end-to-end times are scaled to that host.
PROBE_REF_S = 1.1e-3

# Profiled component types -> per-layer metric stem.
COMPONENT_METRICS = {
    "realm::noc::MeshRouter": "noc.router",
    "realm::noc::NocNode": "noc.node",
    "realm::ic::AxiXbar": "ic.xbar",
    "realm::ic::AxiMux": "ic.mux",
    "realm::rt::RealmUnit": "realm.unit",
    "realm::mem::Llc": "mem.llc",
    "realm::mem::AxiMemSlave": "mem.slave",
    "realm::traffic::DmaEngine": "traffic.dma",
    "realm::traffic::CoreModel": "traffic.core",
    "realm::mon::TxnMonitor": "mon.monitor",
}
PRIMITIVES = ("sim.link_op_ns", "sim.epoch_ns", "noc.credit_link_ns", "mon.sketch_add_ns")
SETUP_STAGES = (("scenario.build_s", "build_s"), ("mem.preload_s", "preload_s"),
                ("cfg.boot_s", "boot_s"))
SETUP_KEYS = tuple(key for _, key in SETUP_STAGES)


def semantic(result):
    """The fields of one result record that the reference pins."""
    return {k: v for k, v in result.items() if k not in HOST_FIELDS | ENVELOPE}


def check_result(result, point, reference):
    """Returns the reasons one result record is a failure (empty: it passed).

    `point` is the point-list record, `reference` the reference record for
    the same point index.
    """
    problems = []
    if not result.get("boot_ok", False):
        problems.append("boot failed")
    if result.get("seed") != point["seed"]:
        problems.append("seed %r != point seed %r" % (result.get("seed"), point["seed"]))
    if result.get("timed_out") != point["horizon_capped"]:
        problems.append("timed_out %r but horizon_capped %r"
                        % (result.get("timed_out"), point["horizon_capped"]))
    got, want = semantic(result), semantic(reference)
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            problems.append("%s: %r != reference %r" % (key, got.get(key), want.get(key)))
    return problems


def perf_pct(solo_cycles, point_cycles):
    return 100.0 * solo_cycles / point_cycles


def fig6_fidelity(by_label):
    """Paper-fidelity report from the xbar-fig6 results, keyed by label.

    `fig6_paper_gap_pt` scores two claims; the other two are reported
    beside it, unscored.
    """
    solo = by_label["fig6a/single-source"]["run_cycles"]
    frag1 = perf_pct(solo, by_label["fig6a/frag 1" + FULL]["run_cycles"])
    b15 = perf_pct(by_label["fig6b/baseline"]["run_cycles"],
                   by_label["fig6b/1/5" + FULL]["run_cycles"])
    no_reserv = perf_pct(solo, by_label["fig6a/no-reserv. (256)" + FULL]["run_cycles"])
    return {
        "fig6_paper_gap_pt": abs(frag1 - PAPER_FRAG1_PERF_PCT)
                             + max(0.0, PAPER_BUDGET_1_5_PERF_PCT - b15),
        "frag1_perf_pct": frag1,
        "budget_1_5_perf_pct": b15,
        "unscored": {
            "budget_1_5_worst_latency_cycles": {
                "paper": "< %d" % PAPER_BUDGET_1_5_WCL,
                "measured": by_label["fig6b/1/5" + FULL]["load_lat_max"]},
            "no_reservation_perf_pct": {
                "paper": "< %s" % PAPER_NO_RESERV_PCT, "measured": no_reserv},
        },
    }


def best_walls(results):
    """Fastest wall seconds of each point over its samples in the run.

    Interference from the host only ever adds time, and on a shared host it
    comes in bursts that can double a sample's wall time. The fastest of a
    point's samples is the estimate least moved by those bursts; the
    benchmark's consumer then takes the median of it over runs.
    """
    walls = {}
    for r in results:
        walls[r["point"]] = min(walls.get(r["point"], float("inf")), r["wall_seconds"])
    return walls


def first_by_point(results):
    """One sample per point; its simulated counts repeat exactly."""
    out = {}
    for r in results:
        out.setdefault(r["point"], r)
    return out


def best_setups(setups, keys=SETUP_KEYS):
    """Fastest set-up seconds (the sum of `keys`) of each point over the
    run's set-up rounds, for the reason given in best_walls."""
    best = {}
    for s in setups:
        best[s["point"]] = min(best.get(s["point"], float("inf")), sum(s[k] for k in keys))
    return best


def setup_sums(setups, keys=SETUP_KEYS):
    """Sum over points of each point's fastest set-up seconds of `keys`."""
    return sum(best_setups(setups, keys).values())


def cycles_per_s(points, results):
    """Sum of simulated cycles over sum of best walls, for `points`."""
    walls = best_walls(r for r in results if r["point"] in points)
    sample = first_by_point(results)
    return sum(sample[p]["simulated_cycles"] for p in walls) / sum(walls.values())


def host_factor(probe_seconds):
    """How many times slower than the reference host this run's host was:
    the host-speed probe's fastest time in the run over PROBE_REF_S."""
    return min(probe_seconds) / PROBE_REF_S


def end_to_end(points, results, setups, peak_rss_mb, factor=1.0):
    """The end-to-end metrics of one untraced run, with host time scaled by
    1 / `factor` (see host_factor)."""
    contended = {p["point"] for p in points if p["interference"] > 0}
    solo = {p["point"] for p in points if p["interference"] == 0}
    return {
        "sim_cycles_per_s": (cycles_per_s(contended, results) * factor, "cycles/s"),
        "solo_cycles_per_s": (cycles_per_s(solo, results) * factor, "cycles/s"),
        "setup_s": (setup_sums(setups) / factor, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(untraced, traced, setups, primitives):
    """The per-layer metrics of one traced run."""
    sample = first_by_point(untraced)
    walls = best_walls(untraced)
    traced_walls = best_walls(traced)
    wall = sum(walls.values())

    def total(key):
        return sum(r[key] for r in sample.values())

    out = {
        "sim.ticks_per_cycle": (total("ticks_executed") / total("simulated_cycles"), "ticks/cycle"),
        "sim.ticks_per_s": (total("ticks_executed") / wall, "ticks/s"),
        "sim.ff_share": (total("fast_forwarded_cycles") / total("simulated_cycles"), "ratio"),
        "noc.hops_per_s": (total("fabric_hops") / wall, "hops/s"),
        "sim.trace_overhead": (sum(traced_walls.values()) / wall, "ratio"),
    }

    shard_ticks = [0] * max(len(r["shard_ticks_executed"]) for r in sample.values())
    for r in sample.values():
        for s, t in enumerate(r["shard_ticks_executed"]):
            shard_ticks[s] += t
    out["sim.shard_tick_imbalance"] = (max(shard_ticks) / statistics.mean(shard_ticks), "ratio")

    # Busy time of the busiest shard against the traced wall time less set-up:
    # the rest is barrier wait, serial edge flush, worker handoff and teardown.
    setup_by_point = best_setups(setups)
    busy = run = 0.0
    nanos, ticks = {}, {}
    for r in traced:
        per_shard = {}
        for row in r["profile"]:
            per_shard[row["shard"]] = per_shard.get(row["shard"], 0) + row["nanos"]
            stem = COMPONENT_METRICS.get(row["type"])
            if stem:
                nanos[stem] = nanos.get(stem, 0) + row["nanos"]
                ticks[stem] = ticks.get(stem, 0) + row["ticks"]
        busy += max(per_shard.values(), default=0) * 1e-9
        run += r["wall_seconds"] - setup_by_point[r["point"]]
    out["sim.sync_share"] = (max(0.0, 1.0 - busy / run), "ratio")

    passes = len(traced) / len(sample)
    for stem in COMPONENT_METRICS.values():
        t = ticks.get(stem, 0)
        out[stem + "_ns_per_tick"] = (nanos.get(stem, 0) / t if t else 0.0, "ns")
        out[stem + "_ticks"] = (t / passes, "ticks")

    for name in PRIMITIVES:
        out[name] = (statistics.median(primitives[name]), "ns")
    for name, key in SETUP_STAGES:
        out[name] = (setup_sums(setups, (key,)), "s")
    return out
