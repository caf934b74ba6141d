#include "workloads.hpp"

#include "scenario/registry.hpp"
#include "sim/rng.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace perfbench {

namespace {

using realm::scenario::make_sweep;
using realm::scenario::PartitionPolicy;
using realm::scenario::ScenarioConfig;

/// Every sharded point runs on this many shards, driven by kShardWorkers
/// threads. The shard barrier holds all workers in lockstep, so a worker
/// whose vCPU the hypervisor withholds stalls the others: with a worker on
/// each of a 4-vCPU guest's vCPUs, a period of heavy steal on a shared host
/// slowed whole runs up to ten times. Two workers halve that exposure and
/// leave two vCPUs to the rest of the guest.
constexpr unsigned kShards = 4;
constexpr unsigned kShardWorkers = 2;

/// How one mesh size of `mesh-contention-large` is reshaped for the
/// sharded kernel.
struct MeshSpec {
    std::size_t first_point;     ///< solo, hog, budget follow in the sweep
    bool monitors;
    std::uint32_t link_latency;
    PartitionPolicy partition;
    /// Victim stream length of the solo point. The registry's 0x800-byte
    /// victim finishes in 13k-29k cycles, a few hundredths of a second, too
    /// short for the kernel's per-cycle cost on a sparse fabric to show;
    /// these lengths run ~200k cycles.
    std::uint64_t solo_victim_bytes;
};

/// Horizons of the contended points (see `cap_contended`), each below the
/// shortest victim run of its workload: 88k cycles on `fig6b/1/5`, 16.7k on
/// the 6-node ring budget point, 128k on budget128 (hog victims starve).
constexpr realm::sim::Cycle kXbarHorizon = 50'000;
constexpr realm::sim::Cycle kRingHorizon = 15'000;
constexpr realm::sim::Cycle kMeshHorizon = 20'000;

constexpr MeshSpec kMesh16{0, true, 1, PartitionPolicy::kStripe, 0x8000};
constexpr MeshSpec kMesh32{3, false, 4, PartitionPolicy::kBalanced, 0x1000};

void add_sweep(Workload& w, const std::string& sweep, const std::string& prefix) {
    for (auto& p : make_sweep(sweep).points) {
        w.points.push_back({prefix + p.label, std::move(p.config), false});
    }
}

BenchPoint& find(Workload& w, const std::string& label) {
    const auto p = std::find_if(w.points.begin(), w.points.end(),
                                [&](const BenchPoint& q) { return q.label == label; });
    if (p == w.points.end()) { throw std::logic_error("no point " + label); }
    return *p;
}

/// Stops every contended point at `horizon` simulated cycles, before its
/// victim finishes, so it ends with `timed_out` set. The host's other tenants
/// slow the simulator in bursts; a short repetition often falls between two
/// bursts, and the fastest of dozens is then close to the undisturbed speed.
/// In full these points run up to 3.1 M cycles, one to two seconds each,
/// which no burst-free stretch covers, and a run times each only a few times.
void cap_contended(Workload& w, realm::sim::Cycle horizon) {
    for (BenchPoint& p : w.points) {
        if (is_contended(p)) {
            p.config.max_cycles = horizon;
            p.horizon_capped = true;
        }
    }
}

/// The solo, hog and budget points of one mesh size.
void add_mesh(Workload& w, const MeshSpec& m) {
    auto sweep = make_sweep("mesh-contention-large");
    for (std::size_t i = m.first_point; i < m.first_point + 3; ++i) {
        ScenarioConfig cfg = std::move(sweep.points[i].config);
        cfg.shards = kShards;
        cfg.shard_workers = kShardWorkers;
        cfg.partition = m.partition;
        cfg.monitors.enabled = m.monitors;
        cfg.topology.mesh.link_latency = m.link_latency;
        if (cfg.interference.empty()) { cfg.victim.stream.bytes = m.solo_victim_bytes; }
        w.points.push_back({sweep.points[i].label, std::move(cfg), false});
    }
    cap_contended(w, kMeshHorizon);
}

} // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
    Workload w;
    if (name == "xbar-fig6") {
        add_sweep(w, "fig6a", "fig6a/");
        add_sweep(w, "fig6b", "fig6b/");
        // The fidelity report needs the full runs of these points.
        std::vector<BenchPoint> full;
        for (const char* label : {"fig6a/frag 1", "fig6b/1/5", "fig6a/no-reserv. (256)"}) {
            full.push_back(find(w, label));
            full.back().label += ", uncapped";
            full.back().timed = false;
        }
        cap_contended(w, kXbarHorizon);
        std::move(full.begin(), full.end(), std::back_inserter(w.points));
    } else if (name == "ring-serial") {
        add_sweep(w, "ring-contention", "");
        cap_contended(w, kRingHorizon);
    } else if (name == "mesh16-s4-mon") {
        add_mesh(w, kMesh16);
    } else if (name == "mesh32-s4-l4") {
        add_mesh(w, kMesh32);
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        w.points[i].config.seed = realm::sim::derive_seed(name, seed + i);
    }
    return w;
}

} // namespace perfbench
