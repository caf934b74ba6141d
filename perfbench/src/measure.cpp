#include "measure.hpp"

#include "traffic/susan.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

namespace perfbench {

namespace {

using realm::scenario::ScenarioConfig;
using realm::scenario::ScenarioResult;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

void json_str(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') { os << '\\'; }
        os << c;
    }
    os << '"';
}

/// Text that reads back as the same double.
std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void array(std::ostream& os, const char* key, const std::vector<std::uint64_t>& v) {
    os << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) { os << (i > 0 ? "," : "") << v[i]; }
    os << ']';
}

/// Host seconds of the three set-up stages of one point.
struct SetupTimes {
    double build_s = 0;   ///< `SimContext` + `make_topology`
    double preload_s = 0; ///< victim input image and `PreloadSpan`s (`write_*`, `warm`)
    double boot_s = 0;    ///< `TopologyHandle::boot` and post-boot regulation
    bool boot_ok = false;
};

SetupTimes time_setup(const ScenarioConfig& cfg) {
    namespace sc = realm::scenario;
    SetupTimes t;
    const auto t0 = Clock::now();
    realm::sim::SimContext ctx;
    ctx.set_scheduler(cfg.scheduler);
    ctx.set_shards(cfg.shards == 0 ? 1 : cfg.shards);
    ctx.set_shard_workers(cfg.shard_workers);
    const std::unique_ptr<sc::TopologyHandle> topo = sc::make_topology(ctx, cfg);
    ctx.set_lookahead(topo->lookahead());
    const auto t1 = Clock::now();

    if (cfg.victim.kind == sc::VictimConfig::Kind::kSusan) {
        const auto& susan = cfg.victim.susan;
        realm::traffic::SusanTraceGenerator gen{susan};
        const auto& img = gen.input_image();
        for (std::size_t i = 0; i < img.size(); ++i) {
            topo->write_u8(susan.image_base + i, img[i]);
        }
        topo->warm(susan.image_base, img.size());
        topo->warm(susan.out_base, img.size());
        topo->warm(susan.lut_base, 4096);
    }
    for (const sc::PreloadSpan& span : cfg.preload) {
        for (std::uint64_t off = 0; off < span.bytes; off += 8) {
            topo->write_u64(span.base + off, off * span.multiplier);
        }
        if (span.warm) { topo->warm(span.base, span.bytes); }
    }
    const auto t2 = Clock::now();

    t.boot_ok = topo->boot(cfg.boot_plans);
    if (t.boot_ok && cfg.throttle_dsa) { topo->set_interference_throttle(true); }
    if (t.boot_ok && cfg.monitor_llc_on_core) { topo->set_victim_monitor(); }
    const auto t3 = Clock::now();

    t.build_s = seconds_between(t0, t1);
    t.preload_s = seconds_between(t1, t2);
    t.boot_s = seconds_between(t2, t3);
    return t;
}

} // namespace

void emit_setup_round(std::ostream& os, const Workload& w, unsigned rep) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (!w.points[i].timed) { continue; }
        const SetupTimes t = time_setup(w.points[i].config);
        os << "{\"kind\":\"setup\",\"rep\":" << rep << ",\"point\":" << i
           << ",\"build_s\":" << num(t.build_s) << ",\"preload_s\":" << num(t.preload_s)
           << ",\"boot_s\":" << num(t.boot_s)
           << ",\"boot_ok\":" << (t.boot_ok ? "true" : "false") << "}\n";
    }
    os.flush();
}

void emit_run(std::ostream& os, const Workload& w, std::size_t point, bool traced) {
    ScenarioConfig cfg = w.points[point].config;
    cfg.profile = traced;
    const auto t0 = Clock::now();
    const ScenarioResult r = realm::scenario::run_scenario(cfg, w.points[point].label);
    const double wall_seconds = seconds_between(t0, Clock::now());

    os << "{\"kind\":\"result\",\"point\":" << point
       << ",\"traced\":" << (traced ? "true" : "false") << ",\"label\":";
    json_str(os, r.label);
    os << ",\"seed\":" << r.seed << ",\"boot_ok\":" << (r.boot_ok ? "true" : "false")
       << ",\"timed_out\":" << (r.timed_out ? "true" : "false")
       << ",\"run_cycles\":" << r.run_cycles << ",\"ops\":" << r.ops
       << ",\"load_lat_mean\":" << num(r.load_lat_mean)
       << ",\"load_lat_min\":" << r.load_lat_min << ",\"load_lat_max\":" << r.load_lat_max
       << ",\"load_lat_p99\":" << r.load_lat_p99
       << ",\"store_lat_mean\":" << num(r.store_lat_mean)
       << ",\"store_lat_max\":" << r.store_lat_max << ",\"dma_bytes\":" << r.dma_bytes
       << ",\"dma_read_bw\":" << num(r.dma_read_bw)
       << ",\"dma_depletions\":" << r.dma_depletions
       << ",\"dma_isolation_cycles\":" << r.dma_isolation_cycles
       << ",\"dma_throttle_stalls\":" << r.dma_throttle_stalls
       << ",\"dma_cut_through\":" << r.dma_cut_through
       << ",\"xbar_w_stalls\":" << r.xbar_w_stalls << ",\"fabric_hops\":" << r.fabric_hops
       << ",\"dma_mr_bytes_total\":" << r.dma_mr_bytes_total
       << ",\"dma_mr_read_lat_mean\":" << num(r.dma_mr_read_lat_mean)
       << ",\"core_mr_read_lat_mean\":" << num(r.core_mr_read_lat_mean)
       << ",\"core_mr_write_lat_max\":" << r.core_mr_write_lat_max
       << ",\"mon_enabled\":" << (r.mon_enabled ? "true" : "false")
       << ",\"mon_lat_p50\":" << r.mon_lat_p50 << ",\"mon_lat_p99\":" << r.mon_lat_p99
       << ",\"mon_lat_p999\":" << r.mon_lat_p999 << ",\"mon_timeouts\":" << r.mon_timeouts
       << ",\"mon_orphan_rsp\":" << r.mon_orphan_rsp
       << ",\"mon_orphan_req\":" << r.mon_orphan_req
       << ",\"mon_stall_events\":" << r.mon_stall_events
       << ",\"mon_wgap_events\":" << r.mon_wgap_events
       << ",\"mon_true_positives\":" << r.mon_true_positives
       << ",\"mon_false_positives\":" << r.mon_false_positives
       << ",\"mon_false_negatives\":" << r.mon_false_negatives
       << ",\"mon_first_detect\":" << r.mon_first_detect;
    array(os, "mgr_p50", r.mgr_p50);
    array(os, "mgr_p99", r.mgr_p99);
    array(os, "mgr_p999", r.mgr_p999);
    array(os, "mgr_flagged", r.mgr_flagged);
    array(os, "mgr_signals", r.mgr_signals);
    array(os, "mgr_hostile", r.mgr_hostile);
    array(os, "mgr_detect", r.mgr_detect);
    array(os, "mgr_occ_milli", r.mgr_occ_milli);
    os << ",\"simulated_cycles\":" << r.simulated_cycles
       << ",\"ticks_executed\":" << r.ticks_executed
       << ",\"ticks_skipped\":" << r.ticks_skipped
       << ",\"fast_forwarded_cycles\":" << r.fast_forwarded_cycles
       << ",\"wall_seconds\":" << num(wall_seconds);
    array(os, "shard_ticks_executed", r.shard_ticks_executed);
    array(os, "shard_ticks_skipped", r.shard_ticks_skipped);
    os << ",\"profile\":[";
    for (std::size_t i = 0; i < r.profile.size(); ++i) {
        const auto& row = r.profile[i];
        os << (i > 0 ? "," : "") << "{\"type\":";
        json_str(os, row.type);
        os << ",\"shard\":" << row.shard << ",\"components\":" << row.components
           << ",\"ticks\":" << row.ticks << ",\"nanos\":" << row.nanos << '}';
    }
    os << "]}\n";
    os.flush();
}

void emit_probe(std::ostream& os) {
    // Dependent xorshift steps with an unpredictable eight-way branch: about
    // a millisecond of integer work on one core that touches no memory, so
    // its time follows the core's clock and its share of the core.
    constexpr std::uint64_t kIters = 100'000;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        switch (x & 7) {
        case 0: acc += x; break;
        case 1: acc ^= x >> 3; break;
        case 2: acc -= x * 3; break;
        case 3: acc = acc * 31 + 1; break;
        case 4: acc += i; break;
        default: acc ^= i * x; break;
        }
    }
    const double seconds = seconds_between(t0, Clock::now());
    asm volatile("" : : "g"(acc) : "memory");
    os << "{\"kind\":\"probe\",\"seconds\":" << num(seconds) << "}\n";
}

void emit_peak_rss(std::ostream& os) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    os << "{\"kind\":\"rss\",\"peak_rss_mb\":" << num(static_cast<double>(ru.ru_maxrss) / 1024.0)
       << "}\n";
    os.flush();
}

} // namespace perfbench
