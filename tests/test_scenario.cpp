/// Tests for the scenario engine: registry integrity, seed derivation,
/// thread-count-invariant parallel sweeps, and the JSON emitter.
#include "scenario/cli.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace realm::scenario {
namespace {

// --- Seed derivation (reproducible parallel runs) ----------------------------

TEST(DeriveSeed, StableAndDistinct) {
    EXPECT_EQ(sim::derive_seed("fig6a", 0), sim::derive_seed("fig6a", 0));
    EXPECT_NE(sim::derive_seed("fig6a", 0), sim::derive_seed("fig6a", 1));
    EXPECT_NE(sim::derive_seed("fig6a", 0), sim::derive_seed("fig6b", 0));
    // No degenerate zero seeds for the registered sweeps.
    for (const std::string& name : sweep_names()) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            EXPECT_NE(sim::derive_seed(name, i), 0U);
        }
    }
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, KnowsTheFigureAndAblationSweeps) {
    for (const char* name : {"fig6a", "fig6b", "ablation-period", "ablation-throttle",
                             "ablation-dos", "random-mix", "idle-tail"}) {
        EXPECT_TRUE(has_sweep(name)) << name;
    }
    EXPECT_FALSE(has_sweep("nope"));
}

TEST(Registry, KnowsTheRingSweeps) {
    for (const char* name : {"ring-contention", "ring-dos-matrix", "ring-dos-smoke"}) {
        ASSERT_TRUE(has_sweep(name)) << name;
        const Sweep sweep = make_sweep(name);
        EXPECT_FALSE(sweep.points.empty());
        for (const SweepPoint& p : sweep.points) {
            EXPECT_EQ(p.config.topology.kind, TopologyKind::kRing) << p.label;
        }
    }
    // The DoS matrix crosses 3 attacker counts x 3 modes x 4 defenses on a
    // 24-node ring, plus one no-attack baseline per defense for detector
    // false-positive scoring.
    const Sweep matrix = make_sweep("ring-dos-matrix");
    EXPECT_EQ(matrix.points.size(), 40U);
    for (const SweepPoint& p : matrix.points) {
        EXPECT_EQ(p.config.topology.ring.num_nodes, 24U);
    }
}

TEST(Registry, EveryCrossbarDosCellBoots) {
    // The boot script needs one plan per REALM unit, and the crossbar keeps
    // one (idle) DSA port and unit even in the 0-attacker baselines.
    for (const char* name : {"xbar-dos-smoke", "xbar-dos-matrix"}) {
        for (const SweepPoint& p : make_sweep(name).points) {
            const std::size_t plans = p.config.boot_plans.size();
            EXPECT_TRUE(plans == 0 || plans == p.config.soc.num_dsa + 1)
                << name << ' ' << p.label;
        }
    }
    Sweep smoke = make_sweep("xbar-dos-smoke");
    for (SweepPoint& p : smoke.points) { p.config.victim.stream.repeat = 1; }
    for (const ScenarioResult& r : ScenarioRunner{RunnerOptions{.threads = 2}}.run(smoke)) {
        EXPECT_TRUE(r.boot_ok) << r.label;
        EXPECT_FALSE(r.timed_out) << r.label;
    }
}

TEST(Registry, SweepPointsCarryDerivedSeeds) {
    const Sweep sweep = make_sweep("fig6b");
    ASSERT_EQ(sweep.points.size(), 6U);
    ASSERT_TRUE(sweep.baseline_index.has_value());
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        EXPECT_EQ(sweep.points[i].config.seed, sim::derive_seed("fig6b", i));
    }
    // Budget points: fragmentation 1, short period, decreasing budgets.
    EXPECT_EQ(sweep.points[1].config.boot_plans[1].fragment_beats, 1U);
    EXPECT_GT(sweep.points[1].config.boot_plans[1].budget_bytes,
              sweep.points[5].config.boot_plans[1].budget_bytes);
}

// --- End-to-end scenario run -------------------------------------------------

ScenarioConfig tiny_scenario() {
    Sweep sweep = make_sweep("random-mix");
    ScenarioConfig cfg = sweep.points[1].config; // frag 16, budgeted DMA
    cfg.victim.random.num_ops = 500;
    return cfg;
}

TEST(RunScenario, CompletesAndReportsVictimMetrics) {
    ScenarioConfig cfg = tiny_scenario();
    const ScenarioResult res = run_scenario(cfg, "tiny");
    EXPECT_EQ(res.label, "tiny");
    EXPECT_TRUE(res.boot_ok);
    EXPECT_FALSE(res.timed_out);
    EXPECT_EQ(res.ops, 500U);
    EXPECT_GT(res.run_cycles, 0U);
    EXPECT_GT(res.load_lat_mean, 0.0);
    EXPECT_GT(res.dma_bytes, 0U);
}

TEST(RunScenario, SeedSelectsTheRandomWorkload) {
    ScenarioConfig cfg = tiny_scenario();
    const ScenarioResult a = run_scenario(cfg);
    cfg.seed ^= 0xDEADBEEF;
    const ScenarioResult b = run_scenario(cfg);
    EXPECT_NE(a.run_cycles, b.run_cycles)
        << "different derived seeds must produce different random traffic";
    cfg.seed ^= 0xDEADBEEF;
    const ScenarioResult c = run_scenario(cfg);
    EXPECT_EQ(a.run_cycles, c.run_cycles) << "same seed must reproduce exactly";
}

// --- Parallel runner ---------------------------------------------------------

void expect_identical(const ScenarioResult& a, const ScenarioResult& b) {
    EXPECT_EQ(semantic_mismatches(a, b), std::vector<std::string>{});
    // Same scheduler on both sides: even the host-side evaluation counts
    // must line up, or the runs were not bit-identical.
    EXPECT_EQ(a.ticks_executed, b.ticks_executed);
    EXPECT_EQ(a.ticks_skipped, b.ticks_skipped);
    EXPECT_EQ(a.fast_forwarded_cycles, b.fast_forwarded_cycles);
}

TEST(ScenarioRunner, ThreadCountDoesNotChangeResults) {
    Sweep sweep = make_sweep("random-mix");
    for (SweepPoint& p : sweep.points) {
        p.config.victim.random.num_ops = 500; // keep the test quick
    }
    const std::vector<ScenarioResult> serial =
        ScenarioRunner{RunnerOptions{.threads = 1}}.run(sweep);
    const std::vector<ScenarioResult> parallel =
        ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        expect_identical(serial[i], parallel[i]);
    }
}

TEST(ScenarioRunner, ResultsKeepPointOrder) {
    Sweep sweep = make_sweep("random-mix");
    for (SweepPoint& p : sweep.points) { p.config.victim.random.num_ops = 200; }
    const auto results = ScenarioRunner{RunnerOptions{.threads = 3}}.run(sweep);
    ASSERT_EQ(results.size(), sweep.points.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].label, sweep.points[i].label);
        EXPECT_EQ(results[i].seed, sweep.points[i].config.seed);
    }
}

// --- Config digest (sweep-level resume) --------------------------------------

TEST(ConfigHash, StableAndSensitiveToSemanticFields) {
    const ScenarioConfig base = tiny_scenario();
    EXPECT_EQ(config_hash(base), config_hash(base)) << "digest must be deterministic";

    ScenarioConfig renamed = base;
    renamed.name = "cosmetic";
    EXPECT_EQ(config_hash(base), config_hash(renamed))
        << "names are presentational, not semantic";

    ScenarioConfig c = base;
    c.seed ^= 1;
    EXPECT_NE(config_hash(base), config_hash(c));
    c = base;
    c.scheduler = sim::Scheduler::kTickAll;
    EXPECT_NE(config_hash(base), config_hash(c));
    c = base;
    c.topology.kind = TopologyKind::kRing;
    EXPECT_NE(config_hash(base), config_hash(c));
    c = base;
    c.boot_plans[1].budget_bytes += 1;
    EXPECT_NE(config_hash(base), config_hash(c));
    c = base;
    c.victim.random.num_ops += 1;
    EXPECT_NE(config_hash(base), config_hash(c));
    // Shard count is result-identical but still hashed: a shard-sweep's
    // points must not alias each other in a resume cache (each point's
    // host-speed numbers are what the sweep exists to compare).
    c = base;
    c.shards += 1;
    EXPECT_NE(config_hash(base), config_hash(c));
    // ... while the worker override is pure host policy and must NOT split
    // the cache.
    c = base;
    c.shard_workers = 7;
    EXPECT_EQ(config_hash(base), config_hash(c));

    ScenarioConfig ring = make_sweep("ring-dos-smoke").points[0].config;
    ScenarioConfig ring2 = ring;
    ring2.topology.ring.num_nodes = 12;
    ring2.topology.ring.nodes = make_ring_roles(12, 1, 2);
    EXPECT_NE(config_hash(ring), config_hash(ring2));
}

TEST(ConfigHash, MonitorKnobsAreSemanticDisplayKnobsAreNot) {
    const ScenarioConfig base = tiny_scenario();

    // The monitor hop adds one cycle each way, so enabling it changes
    // results: a monitored point must never alias an unmonitored one in a
    // resume cache.
    ScenarioConfig c = base;
    c.monitors.enabled = true;
    EXPECT_NE(config_hash(base), config_hash(c));

    // Every detection threshold is result-affecting (verdicts, counters).
    const ScenarioConfig mon_base = c;
    c.monitors.thresholds.timeout_cycles += 1;
    EXPECT_NE(config_hash(mon_base), config_hash(c));
    c = mon_base;
    c.monitors.thresholds.stall_cycles += 1;
    EXPECT_NE(config_hash(mon_base), config_hash(c));
    c = mon_base;
    c.monitors.thresholds.window_cycles += 1;
    EXPECT_NE(config_hash(mon_base), config_hash(c));
    c = mon_base;
    c.monitors.thresholds.bw_threshold += 0.5;
    EXPECT_NE(config_hash(mon_base), config_hash(c));
    c = mon_base;
    c.monitors.thresholds.held_threshold += 0.05;
    EXPECT_NE(config_hash(mon_base), config_hash(c));
    c = mon_base;
    c.monitors.thresholds.occ_threshold += 0.25;
    EXPECT_NE(config_hash(mon_base), config_hash(c));

    // Detector ground truth must split attack cells from benign twins.
    ScenarioConfig hostile = base;
    ASSERT_FALSE(hostile.interference.empty());
    hostile.interference[0].hostile = true;
    EXPECT_NE(config_hash(base), config_hash(hostile));

    // ... while the report row cap is pure display policy.
    c = mon_base;
    c.monitors.report_managers = 3;
    EXPECT_EQ(config_hash(mon_base), config_hash(c));
}

// --- Resume ------------------------------------------------------------------

Sweep quick_smoke_sweep() {
    Sweep sweep = make_sweep("ring-dos-smoke");
    sweep.points.resize(4); // the 1-attacker cells keep the test fast
    return sweep;
}

std::string dump_text(const Sweep& sweep, const std::vector<ScenarioResult>& results) {
    std::ostringstream os;
    write_json(os, sweep, results);
    return os.str();
}

/// Dumps `results`, reads them back through the resume loader and dumps
/// the loaded results again.
std::string reloaded_text(const Sweep& sweep, const std::vector<ScenarioResult>& results) {
    const std::string path = "scenario_reload.json";
    EXPECT_TRUE(write_json_file(path, sweep, results));
    const auto cache = load_json_results(path);
    std::remove(path.c_str());
    std::vector<ScenarioResult> loaded;
    for (const SweepPoint& p : sweep.points) {
        loaded.push_back(cache.at(config_hash(p.config)));
    }
    return dump_text(sweep, loaded);
}

TEST(Resume, JsonRoundTripIsATextFixpoint) {
    // write(load(write(x))) == write(x) on monitored runs with the core-side
    // M&R region armed, so every table field (monitor group and M&R values
    // included) goes through the reader and back.
    Sweep sweep = quick_smoke_sweep();
    for (SweepPoint& p : sweep.points) {
        p.config.monitors.enabled = true;
        p.config.monitor_llc_on_core = true;
    }
    const auto results = ScenarioRunner{RunnerOptions{.threads = 2}}.run(sweep);
    const std::string text = dump_text(sweep, results);
    EXPECT_EQ(reloaded_text(sweep, results), text);
    EXPECT_NE(text.find("\"mgr_occ_milli\""), std::string::npos);
    EXPECT_GT(results[0].core_mr_read_lat_mean, 0.0);
    EXPECT_GT(results[0].dma_mr_bytes_total, 0U);
}

/// Converts to any member type; `T{AnyField{}...}` compiles iff `T` is an
/// aggregate with at least that many members.
struct AnyField {
    template <typename T>
    operator T() const; // declared only: used in unevaluated contexts
};

template <typename T, std::size_t... I>
constexpr bool brace_constructible(std::index_sequence<I...>) {
    return requires { T{(void(I), AnyField{})...}; };
}

/// Number of members of the aggregate `T` (none of which is itself an
/// aggregate, so brace elision cannot absorb extra initializers).
template <typename T, std::size_t N = 0>
constexpr std::size_t aggregate_arity() {
    if constexpr (brace_constructible<T>(std::make_index_sequence<N + 1>{})) {
        return aggregate_arity<T, N + 1>();
    } else {
        return N;
    }
}

template <typename T>
std::size_t table_size() {
    std::size_t n = 0;
    T::for_each_field([&](const char*, auto, FieldTag) { ++n; });
    return n;
}

TEST(Resume, FieldTablesListEveryMember) {
    // A member left out of the table is neither dumped nor compared.
    EXPECT_EQ(table_size<ScenarioResult>(), aggregate_arity<ScenarioResult>());
    EXPECT_EQ(table_size<ProfileRow>(), aggregate_arity<ProfileRow>());
}

TEST(Resume, EveryTableFieldReachesTheDumpAndReadsBack) {
    // Set each field of a synthetic result in turn: the emitted text must
    // change, reading it back must reproduce it, and the field is a semantic
    // mismatch unless it is host-side.
    Sweep sweep;
    sweep.points.push_back({"p", ScenarioConfig{}});
    ScenarioResult base;
    base.mon_enabled = true; // emit the monitoring group
    const std::string base_text = dump_text(sweep, {base});
    std::size_t fields = 0;
    ScenarioResult::for_each_field([&](const char* key, auto member, FieldTag tag) {
        ScenarioResult r = base;
        auto& value = r.*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, bool>) {
            value = !value;
        } else if constexpr (std::is_same_v<T, std::string>) {
            value = "q \"r\"\n";
        } else if constexpr (std::is_arithmetic_v<T>) {
            value = static_cast<T>(~std::uint64_t{0});
        } else {
            value.resize(2); // the vectors
        }
        SCOPED_TRACE(key);
        ++fields;
        const std::string text = dump_text(sweep, {r});
        EXPECT_NE(text, base_text);
        EXPECT_EQ(reloaded_text(sweep, {r}), text);
        EXPECT_EQ(semantic_mismatches(base, r),
                  tag == FieldTag::kHost ? std::vector<std::string>{}
                                         : std::vector<std::string>{key});
    });
    EXPECT_GT(fields, 50U);
}

TEST(Resume, PointLineCutMidNumberIsRejected) {
    // A dump cut inside a point line must not be reused: the reader throws,
    // naming the file and line, instead of reading the cut value.
    Sweep sweep = quick_smoke_sweep();
    const auto results = ScenarioRunner{RunnerOptions{.threads = 2}}.run(sweep);
    const std::string text = dump_text(sweep, results);
    const std::size_t digits = text.find("\"run_cycles\": ") + 14;
    ASSERT_GT(results[0].run_cycles, 9U) << "the cut must land inside the number";
    const std::string path = "scenario_resume_cut.json";
    std::ofstream{path} << text.substr(0, digits + 1); // one digit survives
    try {
        (void)load_json_results(path);
        ADD_FAILURE() << "a cut point line was accepted";
    } catch (const std::runtime_error& e) {
        // Line 6 is the first point (after the document header).
        EXPECT_NE(std::string{e.what()}.find(path + ":6:"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW((void)ScenarioRunner{}.run_resumed(sweep, path), std::runtime_error);
    EXPECT_THROW((void)load_json_results_by_label(path), std::runtime_error);
    EXPECT_THROW((void)load_profile_rows(path), std::runtime_error);

    // Wrong types and trailing text are rejected too; an unknown key is
    // skipped and the key it replaced keeps its default.
    const std::size_t first = text.find("    {");
    const std::string line = text.substr(first, text.find('\n', first) - first);
    const auto read_edited = [&](const std::string& from, const std::string& to) {
        std::string edited = line;
        std::ofstream{path} << "{\n" << edited.replace(edited.find(from), from.size(), to);
        return load_json_results_by_label(path);
    };
    for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
             {"\"ops\": ", "\"ops\": -"},
             {"\"boot_ok\": true", "\"boot_ok\": 1"},
             {"\"seed\": ", "\"seed\": 99999999999999999999"},
             {"}", "} x"}}) {
        EXPECT_THROW((void)read_edited(from, to), std::runtime_error) << to;
    }
    EXPECT_EQ(read_edited("\"ops\": ", "\"unknown_key\": ").at(results[0].label).ops, 0U);
    std::remove(path.c_str());
}

TEST(Resume, CompareIgnoresHostFieldsAndNamesSemanticEdits) {
    Sweep sweep = quick_smoke_sweep();
    sweep.points.resize(2);
    const auto results = ScenarioRunner{RunnerOptions{.threads = 2}}.run(sweep);
    const std::string a = "scenario_compare_a.json";
    const std::string b = "scenario_compare_b.json";
    ASSERT_TRUE(write_json_file(a, sweep, results));

    auto host_edited = results;
    for (ScenarioResult& r : host_edited) {
        r.ticks_executed += 7;
        r.wall_seconds *= 3;
        r.shard_ticks_executed.push_back(1);
        r.profile.push_back(ProfileRow{"Router", 0, 1, 2, 3});
    }
    ASSERT_TRUE(write_json_file(b, sweep, host_edited));
    EXPECT_EQ(compare_dumps(a, b), std::vector<std::string>{});

    auto semantic_edit = results;
    semantic_edit[1].dma_bytes += 1;
    ASSERT_TRUE(write_json_file(b, sweep, semantic_edit));
    const std::vector<std::string> diff = compare_dumps(a, b);
    ASSERT_EQ(diff.size(), 1U);
    EXPECT_EQ(diff[0], "'" + results[1].label + "' dma_bytes: " +
                           std::to_string(results[1].dma_bytes) + " vs " +
                           std::to_string(results[1].dma_bytes + 1));

    // A missing point, or a missing dump, never passes.
    Sweep shorter = sweep;
    shorter.points.resize(1);
    ASSERT_TRUE(write_json_file(b, shorter, {results[0]}));
    EXPECT_EQ(compare_dumps(a, b).size(), 1U);
    EXPECT_FALSE(compare_dumps(a, "does_not_exist.json").empty());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(Resume, RunResumedSkipsMatchingPointsAndRerunsChangedOnes) {
    Sweep sweep = quick_smoke_sweep();
    const ScenarioRunner runner{RunnerOptions{.threads = 2}};
    const auto first = runner.run(sweep);
    const std::string path = "scenario_resume_skip.json";
    ASSERT_TRUE(write_json_file(path, sweep, first));

    // Unchanged sweep: every point is served from the dump.
    std::size_t reused = 0;
    const auto resumed = runner.run_resumed(sweep, path, &reused);
    EXPECT_EQ(reused, sweep.points.size());
    ASSERT_EQ(resumed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(resumed[i].run_cycles, first[i].run_cycles);
        EXPECT_EQ(resumed[i].label, sweep.points[i].label);
    }

    // Changing one point's semantics re-runs exactly that point.
    sweep.points[1].config.seed ^= 0xBEEF;
    const auto partial = runner.run_resumed(sweep, path, &reused);
    EXPECT_EQ(reused, sweep.points.size() - 1);
    EXPECT_EQ(partial[0].run_cycles, first[0].run_cycles);
    // A missing file degrades to a full run, never an error.
    const auto cold = runner.run_resumed(sweep, "does_not_exist.json", &reused);
    EXPECT_EQ(reused, 0U);
    EXPECT_EQ(cold.size(), sweep.points.size());
    std::remove(path.c_str());
}

TEST(Resume, ResumedPointsAreBitIdenticalToTheFreshRun) {
    // Every semantic double (latency means, bandwidths) must read back
    // exactly, not rounded to the dump's print precision.
    Sweep sweep = quick_smoke_sweep();
    const ScenarioRunner runner{RunnerOptions{.threads = 2}};
    const auto fresh = runner.run(sweep);
    const std::string path = "scenario_resume_exact.json";
    ASSERT_TRUE(write_json_file(path, sweep, fresh));
    std::size_t reused = 0;
    const auto resumed = runner.run_resumed(sweep, path, &reused);
    std::remove(path.c_str());
    ASSERT_EQ(reused, sweep.points.size());
    bool long_double_seen = false; // a mean that 6 digits would round
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        SCOPED_TRACE(fresh[i].label);
        EXPECT_EQ(semantic_mismatches(fresh[i], resumed[i]), std::vector<std::string>{});
        EXPECT_EQ(resumed[i].wall_seconds, fresh[i].wall_seconds);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", fresh[i].load_lat_mean);
        long_double_seen |= std::strtod(buf, nullptr) != fresh[i].load_lat_mean;
    }
    EXPECT_TRUE(long_double_seen) << "the sweep must exercise non-round doubles";
}

TEST(Resume, MonitoredPointsNeverAliasUnmonitoredCaches) {
    // A dump written without --monitors must not satisfy a monitored resume:
    // the monitor hop shifts timing and the cached line has no telemetry.
    Sweep sweep = quick_smoke_sweep();
    sweep.points.resize(2);
    const ScenarioRunner runner{RunnerOptions{.threads = 2}};
    const auto plain = runner.run(sweep);
    const std::string path = "scenario_resume_monitored.json";
    ASSERT_TRUE(write_json_file(path, sweep, plain));

    Sweep monitored = sweep;
    for (SweepPoint& p : monitored.points) { p.config.monitors.enabled = true; }
    std::size_t reused = 0;
    const auto results = runner.run_resumed(monitored, path, &reused);
    EXPECT_EQ(reused, 0U) << "monitored configs must re-run, not reuse";
    ASSERT_EQ(results.size(), monitored.points.size());
    for (const ScenarioResult& r : results) { EXPECT_TRUE(r.mon_enabled); }

    // And the monitored dump round-trips: a second monitored pass is all hits.
    ASSERT_TRUE(write_json_file(path, monitored, results));
    const auto again = runner.run_resumed(monitored, path, &reused);
    EXPECT_EQ(reused, monitored.points.size());
    std::remove(path.c_str());
}

// --- 24-node DoS-matrix point through the parallel runner --------------------

TEST(ScenarioRunner, RingMatrixPointThreadInvariant) {
    // Acceptance gate: a 24-node ring DoS-matrix point must produce
    // identical results through the runner at --threads 1 and --threads N.
    Sweep matrix = make_sweep("ring-dos-matrix");
    Sweep sweep;
    sweep.name = matrix.name;
    sweep.points = {matrix.points[0], matrix.points[2]}; // hog: none + budget
    for (SweepPoint& p : sweep.points) {
        p.config.victim.stream.repeat = 1; // keep the test quick
    }
    const auto serial = ScenarioRunner{RunnerOptions{.threads = 1}}.run(sweep);
    const auto parallel = ScenarioRunner{RunnerOptions{.threads = 4}}.run(sweep);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(sweep.points[i].label);
        expect_identical(serial[i], parallel[i]);
        EXPECT_GT(serial[i].fabric_hops, 0U);
    }
}

// --- JSON emitter ------------------------------------------------------------

TEST(JsonOutput, EmitsOnePointPerResultWithEscaping) {
    Sweep sweep = make_sweep("random-mix");
    for (SweepPoint& p : sweep.points) { p.config.victim.random.num_ops = 100; }
    sweep.points[0].label = "weird \"label\"\n";
    const auto results = ScenarioRunner{}.run(sweep);
    std::ostringstream os;
    write_json(os, sweep, results);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"sweep\": \"random-mix\""), std::string::npos);
    EXPECT_NE(json.find("\\\"label\\\"\\n"), std::string::npos);
    EXPECT_NE(json.find("\"run_cycles\""), std::string::npos);
    std::size_t points = 0;
    for (std::size_t pos = json.find("\"label\""); pos != std::string::npos;
         pos = json.find("\"label\"", pos + 1)) {
        ++points;
    }
    EXPECT_EQ(points, results.size());
    // Balanced braces/brackets: a cheap structural sanity check (the CI
    // smoke run validates against a real JSON parser).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

} // namespace
} // namespace realm::scenario
