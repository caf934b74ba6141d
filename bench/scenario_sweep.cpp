/// \file
/// \brief Generic sweep runner: executes any registered sweep by name.
///
/// `scenario_sweep --list` prints every registered sweep (the figure/table
/// reproductions plus the ring and mesh NoC families); `scenario_sweep
/// NAME...` runs them with the shared bench flags — `--threads N`
/// parallelizes points, `--json PATH` dumps machine-readable results (one
/// sweep per invocation), `--report PATH.md` renders the reviewable
/// markdown report (DoS matrices become attackers x attack-mode tables per
/// defense), `--json PATH --resume` skips points whose config hash already
/// exists in the dump, enabling cheap incremental re-runs of the big DoS
/// matrices, and `--diff BASELINE.json` compares each cell's worst-case
/// victim latency against a previous run's dump, exiting non-zero past
/// `--diff-threshold`/`--diff-slack` — the CI latency-regression gate.
///
/// `scenario_sweep --compare A.json B.json` runs nothing: it matches the two
/// dumps' points by label and exits 1, naming each label, field and both
/// values, when any semantic field differs (host-side tick counts, wall
/// time and profiles are ignored) — the bit-identity check across shard
/// counts, schedulers and the profiler.
///
/// A malformed dump (`--resume`, `--diff`, `--partition-profile`,
/// `--compare`) is reported and exits 2.
#include "scenario/cli.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace {

int compare(const char* a_path, const char* b_path) {
    const std::vector<std::string> divergences =
        realm::scenario::compare_dumps(a_path, b_path);
    for (const std::string& d : divergences) {
        std::fprintf(stderr, "compare: %s\n", d.c_str());
    }
    std::fprintf(stderr, "compare %s vs %s: %zu divergence%s\n", a_path, b_path,
                 divergences.size(), divergences.size() == 1 ? "" : "s");
    return divergences.empty() ? 0 : 1;
}

int run(int argc, char** argv) {
    using namespace realm::scenario;
    if (argc > 1 && std::strcmp(argv[1], "--compare") == 0) {
        if (argc != 4) {
            std::fprintf(stderr, "usage: %s --compare A.json B.json\n", argv[0]);
            return 2;
        }
        return compare(argv[2], argv[3]);
    }
    BenchOptions opts = parse_bench_args(argc, argv, /*accept_positional=*/true);
    if (opts.positional.empty()) {
        std::fprintf(stderr,
                     "usage: %s [options] SWEEP...  (try --list)\n"
                     "       %s --compare A.json B.json\n",
                     argv[0], argv[0]);
        return 2;
    }
    if (!opts.json_path.empty() && opts.positional.size() > 1) {
        std::fprintf(stderr, "--json supports exactly one sweep per invocation\n");
        return 2;
    }
    if (!opts.report_path.empty() && opts.positional.size() > 1) {
        std::fprintf(stderr, "--report supports exactly one sweep per invocation\n");
        return 2;
    }
    if (!opts.diff_path.empty() && opts.positional.size() > 1) {
        std::fprintf(stderr, "--diff supports exactly one sweep per invocation\n");
        return 2;
    }
    for (const std::string& name : opts.positional) {
        if (!has_sweep(name)) {
            std::fprintf(stderr, "unknown sweep '%s' (try --list)\n", name.c_str());
            return 2;
        }
    }

    int exit_code = 0;
    for (const std::string& name : opts.positional) {
        Sweep sweep = make_sweep(name);
        std::printf("== %s ==\n", sweep.title.c_str());
        const auto results = run_with_options(opts, sweep);
        if (const int diff_rc = check_diff(opts, sweep, results); diff_rc != 0) {
            exit_code = diff_rc;
        }

        std::printf("%-22s %12s %8s %9s %9s %9s %10s %9s\n", "label", "cycles", "ops",
                    "lat_mean", "lat_max", "st_max", "dma[B/cyc]", "hops");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ScenarioResult& r = results[i];
            std::printf("%-22s %12llu %8llu %9.2f %9llu %9llu %10.2f %9llu\n",
                        r.label.c_str(), static_cast<unsigned long long>(r.run_cycles),
                        static_cast<unsigned long long>(r.ops), r.load_lat_mean,
                        static_cast<unsigned long long>(r.load_lat_max),
                        static_cast<unsigned long long>(r.store_lat_max), r.dma_read_bw,
                        static_cast<unsigned long long>(r.fabric_hops));
        }
        for (const std::string& note : sweep.notes) {
            std::printf("note: %s\n", note.c_str());
        }
        std::printf("\n");
    }
    return exit_code;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
