/// \file
/// \brief Timed calls into the simulator, each printed as one JSON record
///        per line for `run.py` to check and aggregate.
#pragma once

#include "workloads.hpp"

#include <ostream>

namespace perfbench {

/// Prints `{"kind":"setup","rep":rep,...}` for one round of set-up over
/// every timed point of the workload: the same public calls `run_scenario` makes
/// before the first simulated cycle, timed in three stages.
void emit_setup_round(std::ostream& os, const Workload& w, unsigned rep);

/// Runs one point through `run_scenario` and prints
/// `{"kind":"result",...}` with every `ScenarioResult` field.
/// `wall_seconds` is the host time of the whole call, taken here: it
/// includes the scenario's set-up and teardown, and the program's own
/// timer is not used.
void emit_run(std::ostream& os, const Workload& w, std::size_t point, bool traced);

/// Runs the host-speed probe once and prints `{"kind":"probe","seconds":...}`.
/// The probe is a fixed loop of the benchmark's own, with no simulator code,
/// so only the host moves its time.
void emit_probe(std::ostream& os);

/// Prints `{"kind":"rss","peak_rss_mb":...}`: the process's peak resident set.
void emit_peak_rss(std::ostream& os);

/// Runs the primitive loops and prints one `{"kind":"primitive",...}` each.
void emit_primitives(std::ostream& os);

} // namespace perfbench
