/// \file
/// \brief The benchmark's named workloads: fixed lists of scenario points,
///        built from the registered sweeps plus the benchmark's own
///        horizon and victim-length changes.
#pragma once

#include "scenario/scenario.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One experiment point of a workload.
struct BenchPoint {
    std::string label;
    realm::scenario::ScenarioConfig config;
    /// The victim is expected to be still running at `config.max_cycles`
    /// (a horizon-capped point): `timed_out` is a recorded result, not a
    /// failure.
    bool horizon_capped = false;
    /// false: the point runs once per run, untimed, for the paper-fidelity
    /// report and the reference check only.
    bool timed = true;
};

struct Workload {
    std::vector<BenchPoint> points;
};

/// Builds the named workload; `seed` feeds every point's
/// `ScenarioConfig::seed`. Throws `std::invalid_argument` for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Interference managers of a point; a point with none is a "solo" point.
[[nodiscard]] inline bool is_contended(const BenchPoint& p) noexcept {
    return !p.config.interference.empty();
}

} // namespace perfbench
