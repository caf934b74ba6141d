/// \file
/// \brief The benchmark's measuring program. Prints JSON records, one per
///        line; `run.py` checks them against the serial reference and
///        reduces them to the benchmark's metrics.
///
///   perfbench info
///   perfbench points    <workload> [--seed S]
///   perfbench reference <workload>
///   perfbench run       <workload> --seed S --seconds T --trace 0|1
#include "measure.hpp"
#include "workloads.hpp"

#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Share of a run's seconds spent on set-up rounds; `run.py` reports each
/// point's fastest set-up. Set-up takes milliseconds, so a run holds dozens
/// of rounds.
constexpr double kSetupShare = 0.05;
/// Share of an untraced run's seconds spent on the solo points, which are
/// short, so they need many repetitions to give a steady rate.
constexpr double kSoloShare = 0.1;

constexpr bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return PERFBENCH_SANITIZE[0] != '\0';
#endif
}

constexpr bool release_build() {
#ifdef NDEBUG
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

void print_info() {
    std::cout << "{\"kind\":\"info\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"compiler\":\"" << PERFBENCH_COMPILER
              << "\",\"sanitized\":" << (sanitized() ? "true" : "false")
              << ",\"release\":" << (release_build() ? "true" : "false") << "}\n";
}

void print_points(const Workload& w) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const auto& p = w.points[i];
        const auto& c = p.config;
        const bool mesh = c.topology.kind == realm::scenario::TopologyKind::kMesh;
        const auto& noc = mesh ? static_cast<const realm::scenario::NocTopologyConfig&>(
                                     c.topology.mesh)
                               : c.topology.ring;
        std::cout << "{\"kind\":\"point\",\"point\":" << i << ",\"label\":\"" << p.label
                  << "\",\"fabric\":\"" << realm::scenario::to_string(c.topology.kind)
                  << "\",\"shards\":" << c.shards << ",\"shard_workers\":" << c.shard_workers
                  << ",\"link_latency\":" << noc.link_latency << ",\"partition\":\""
                  << realm::scenario::to_string(c.partition)
                  << "\",\"monitors\":" << (c.monitors.enabled ? "true" : "false")
                  << ",\"interference\":" << c.interference.size()
                  << ",\"victim_bytes\":" << c.victim.stream.bytes
                  << ",\"max_cycles\":" << c.max_cycles
                  << ",\"horizon_capped\":" << (p.horizon_capped ? "true" : "false")
                  << ",\"timed\":" << (p.timed ? "true" : "false")
                  << ",\"seed\":" << c.seed << "}\n";
    }
}

/// Host seconds since `t`.
double since(Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/// A pass that is repeated whenever the time it has taken falls below
/// `share` of the run so far, so that its samples spread over the whole run:
/// the host's speed drifts in bursts of several seconds.
class SharedPass {
public:
    SharedPass(double share, std::function<void()> pass)
        : share_(share), pass_(std::move(pass)) {}

    void run() {
        const auto t = Clock::now();
        pass_();
        spent_ += since(t);
    }

    void catch_up(Clock::time_point start) {
        while (spent_ < share_ * since(start)) { run(); }
    }

private:
    double share_;
    std::function<void()> pass_;
    double spent_ = 0;
};

/// Set-up rounds; with `probe`, each is preceded by a host-speed probe.
SharedPass setup_rounds(const Workload& w, bool probe) {
    return SharedPass(kSetupShare, [&w, probe, rep = 0U]() mutable {
        if (probe) { emit_probe(std::cout); }
        emit_setup_round(std::cout, w, rep++);
    });
}

/// Runs each untimed point once, untraced, before any timing starts.
void run_untimed(const Workload& w) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (!w.points[i].timed) { emit_run(std::cout, w, i, false); }
    }
}

/// Untraced run: the untimed points once, then the contended points
/// round-robin, each at least once and again while its next run is expected
/// (from its previous wall time) to end within `seconds`. Set-up rounds and
/// solo passes fill their shares of the time between contended runs. A
/// host-speed probe precedes every timed repetition and set-up round.
void run_untraced(const Workload& w, double seconds) {
    run_untimed(w);
    std::vector<std::size_t> solo;
    std::vector<std::size_t> contended;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        if (w.points[i].timed) { (is_contended(w.points[i]) ? contended : solo).push_back(i); }
    }
    SharedPass setup = setup_rounds(w, true);
    SharedPass solo_pass(kSoloShare, [&] {
        for (const std::size_t i : solo) {
            emit_probe(std::cout);
            emit_run(std::cout, w, i, false);
        }
    });
    const auto start = Clock::now();
    setup.run();
    solo_pass.run();
    std::vector<double> last(w.points.size(), 0.0);
    for (std::size_t k = 0; !contended.empty(); ++k) {
        const std::size_t i = contended[k % contended.size()];
        if (k >= contended.size() && since(start) + last[i] > seconds) { break; }
        const auto t = Clock::now();
        emit_probe(std::cout);
        emit_run(std::cout, w, i, false);
        last[i] = since(t);
        setup.catch_up(start);
        solo_pass.catch_up(start);
    }
    emit_peak_rss(std::cout);
}

/// Traced run: the untimed points once, then rounds of one untraced and one
/// profiled pass over every timed point (at least one round) with set-up
/// rounds between them, then the primitive loops.
void run_traced(const Workload& w, double seconds) {
    run_untimed(w);
    SharedPass setup = setup_rounds(w, false);
    const auto start = Clock::now();
    setup.run();
    double round = 0;
    do {
        const auto t = Clock::now();
        for (const bool traced : {false, true}) {
            for (std::size_t i = 0; i < w.points.size(); ++i) {
                if (w.points[i].timed) { emit_run(std::cout, w, i, traced); }
            }
        }
        setup.catch_up(start);
        round = since(t);
    } while (since(start) + round <= seconds);
    emit_primitives(std::cout);
}

int usage() {
    std::cerr << "usage: perfbench info | points <workload> [--seed S] | reference "
                 "<workload> | run <workload> --seed S --seconds T --trace 0|1\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) { return usage(); }
    const std::string cmd = argv[1];
    if (cmd == "info") {
        print_info();
        return 0;
    }
    if (argc < 3) { return usage(); }
    const std::string workload = argv[2];
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 3; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--seed") {
            seed = std::stoull(value);
        } else if (flag == "--seconds") {
            seconds = std::stod(value);
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            trace = value == "1" ? 1 : 0;
        } else {
            return usage();
        }
    }

    Workload w;
    try {
        w = make_workload(workload, seed);
    } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << '\n';
        return 2;
    }

    if (cmd == "points") {
        print_points(w);
        return 0;
    }
    if (cmd == "reference") {
        // The serial reference: every point on one shard, one thread.
        for (auto& p : w.points) {
            p.config.shards = 1;
            p.config.shard_workers = 1;
        }
        for (std::size_t i = 0; i < w.points.size(); ++i) { emit_run(std::cout, w, i, false); }
        return 0;
    }
    if (cmd == "run") {
        if (trace < 0 || seconds <= 0) { return usage(); }
        if (!release_build() || sanitized()) {
            std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
                      << (sanitized() ? " sanitizer" : "") << " build; build Release\n";
            return 3;
        }
        if (trace == 1) {
            run_traced(w, seconds);
        } else {
            run_untraced(w, seconds);
        }
        return 0;
    }
    return usage();
}
