#include "scenario/runner.hpp"

#include "scenario/report.hpp" // worst_case_victim_latency

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_set>

namespace realm::scenario {

std::vector<ScenarioResult> ScenarioRunner::run(const Sweep& sweep) const {
    std::vector<const ScenarioConfig*> configs;
    std::vector<std::string> labels;
    configs.reserve(sweep.points.size());
    labels.reserve(sweep.points.size());
    for (const SweepPoint& p : sweep.points) {
        configs.push_back(&p.config);
        labels.push_back(p.label);
    }
    return run_points(configs, labels);
}

std::vector<ScenarioResult>
ScenarioRunner::run(const std::vector<ScenarioConfig>& configs) const {
    std::vector<const ScenarioConfig*> ptrs;
    std::vector<std::string> labels;
    ptrs.reserve(configs.size());
    labels.reserve(configs.size());
    for (const ScenarioConfig& cfg : configs) {
        ptrs.push_back(&cfg);
        labels.push_back(cfg.name);
    }
    return run_points(ptrs, labels);
}

std::vector<ScenarioResult>
ScenarioRunner::run_points(const std::vector<const ScenarioConfig*>& configs,
                           const std::vector<std::string>& labels) const {
    std::vector<ScenarioResult> results(configs.size());
    if (configs.empty()) { return results; }

    unsigned threads = options_.threads;
    if (threads == 0) {
        // Each point's context spins up `cfg.shards` workers of its own, so
        // bound `threads x shards` by the hardware: autodetect divides the
        // core count by the widest shard request instead of stacking both
        // levels of parallelism onto every core.
        unsigned max_shards = 1;
        for (const ScenarioConfig* cfg : configs) {
            max_shards = std::max(max_shards, std::max(1U, cfg->shards));
        }
        const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
        threads = std::max(1U, hw / max_shards);
    }
    threads = std::min<unsigned>(threads, static_cast<unsigned>(configs.size()));

    if (threads <= 1) {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            results[i] = run_scenario(*configs[i], labels[i]);
        }
        return results;
    }

    // Work-stealing over an atomic index: points differ wildly in cost
    // (baseline vs fully-contended), so static partitioning wastes workers.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < configs.size();
                 i = next.fetch_add(1)) {
                results[i] = run_scenario(*configs[i], labels[i]);
            }
        });
    }
    for (std::thread& th : pool) { th.join(); }
    return results;
}

std::vector<ScenarioResult>
ScenarioRunner::run_resumed(const Sweep& sweep, const std::string& resume_path,
                            std::size_t* reused_out) const {
    const std::unordered_map<std::uint64_t, ScenarioResult> cache =
        load_json_results(resume_path);

    std::vector<ScenarioResult> results(sweep.points.size());
    std::vector<const ScenarioConfig*> to_run;
    std::vector<std::string> labels;
    std::vector<std::size_t> slots;
    std::size_t reused = 0;
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        const SweepPoint& p = sweep.points[i];
        if (const auto it = cache.find(config_hash(p.config)); it != cache.end()) {
            results[i] = it->second;
            // The hash covers everything result-affecting; the label is
            // presentational and may have been renamed since the dump.
            results[i].label = p.label;
            ++reused;
            continue;
        }
        to_run.push_back(&p.config);
        labels.push_back(p.label);
        slots.push_back(i);
    }
    const std::vector<ScenarioResult> fresh = run_points(to_run, labels);
    for (std::size_t k = 0; k < fresh.size(); ++k) { results[slots[k]] = fresh[k]; }
    if (reused_out != nullptr) { *reused_out = reused; }
    return results;
}

namespace {

/// \name Value writers, one per field type of the field tables
///@{
void write_value(std::ostream& os, std::uint64_t v) { os << v; }
void write_value(std::ostream& os, unsigned v) { os << v; }
void write_value(std::ostream& os, bool v) { os << (v ? "true" : "false"); }

/// Shortest round-trip form: the reader gets back the same double, so a
/// resumed point is bit-identical to the fresh run it was dumped from.
void write_value(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    os.write(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
}

void write_value(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void write_value(std::ostream& os, const ProfileRow& row);

template <typename T>
void write_value(std::ostream& os, const std::vector<T>& v) {
    os << '[';
    for (std::size_t k = 0; k < v.size(); ++k) {
        os << (k > 0 ? ", " : "");
        write_value(os, v[k]);
    }
    os << ']';
}

void write_value(std::ostream& os, const ProfileRow& row) {
    const char* sep = "{";
    ProfileRow::for_each_field([&](const char* key, auto member, FieldTag) {
        os << sep << '"' << key << "\": ";
        write_value(os, row.*member);
        sep = ", ";
    });
    os << '}';
}
///@}

/// True when `member` is the pointer-to-member `target` (members of other
/// types never are).
template <typename M, typename T>
constexpr bool is_member(M member, T target) {
    if constexpr (std::is_same_v<M, T>) {
        return member == target;
    } else {
        return false;
    }
}

} // namespace

void write_json(std::ostream& os, const Sweep& sweep,
                const std::vector<ScenarioResult>& results) {
    os << "{\n  \"sweep\": ";
    write_value(os, sweep.name);
    os << ",\n  \"title\": ";
    write_value(os, sweep.title);
    os << ",\n  \"baseline_index\": ";
    if (sweep.baseline_index) {
        os << *sweep.baseline_index;
    } else {
        os << "null";
    }
    os << ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& r = results[i];
        const char* sep = "    {";
        ScenarioResult::for_each_field([&](const char* key, auto member, FieldTag tag) {
            const auto& value = r.*member;
            // The monitoring group appears only on monitored runs, the
            // profile only when one was recorded.
            if (tag == FieldTag::kMonitor && !r.mon_enabled) { return; }
            if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                         std::vector<ProfileRow>>) {
                if (value.empty()) { return; }
            }
            os << sep << '"' << key << "\": ";
            sep = ", ";
            write_value(os, value);
            // Two derived keys ride along: the point's resume key after its
            // label, and the host speed CI tracks after the wall time.
            if (is_member(member, &ScenarioResult::label) && i < sweep.points.size()) {
                char hash_buf[24];
                std::snprintf(hash_buf, sizeof hash_buf, "0x%016llx",
                              static_cast<unsigned long long>(
                                  config_hash(sweep.points[i].config)));
                os << ", \"config_hash\": \"" << hash_buf << '"';
            }
            if (is_member(member, &ScenarioResult::wall_seconds)) {
                os << ", \"sim_cycles_per_sec\": ";
                write_value(os, r.sim_cycles_per_sec());
            }
        });
        os << '}' << (i + 1 < results.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

bool write_json_file(const std::string& path, const Sweep& sweep,
                     const std::vector<ScenarioResult>& results) {
    std::ofstream out{path};
    if (!out) { return false; }
    write_json(out, sweep, results);
    return out.good();
}

namespace {

/// Strict parser for one point line of a `write_json` dump: exactly one
/// JSON object, optionally followed by the separating comma. Keys in the
/// field tables parse into their typed members, absent keys keep their
/// defaults, and other keys are skipped as generic JSON values. Anything
/// else — a cut-off value, a wrong type, trailing text — throws, naming
/// the file, line and column. (A value must be followed by ',' or a
/// closing bracket, so `14x`, or `1.5` in an integer field, is an error
/// rather than 14 or 1.)
class PointParser {
public:
    PointParser(std::string_view line, std::string where)
        : text_{line}, where_{std::move(where)} {}

    void parse(ScenarioResult& r, std::optional<std::uint64_t>& hash) {
        parse_object(r, [&](const std::string& key) {
            if (key != "config_hash") { return false; }
            const std::string s = parse_string();
            std::uint64_t h = 0;
            const char* last = s.data() + s.size();
            if (!s.starts_with("0x") || s.size() == 2 ||
                std::from_chars(s.data() + 2, last, h, 16).ptr != last) {
                fail("bad config_hash");
            }
            hash = h;
            return true;
        });
        eat(',');
        if (peek() != '\0') { fail("trailing text after the point object"); }
    }

private:
    [[noreturn]] void fail(const char* what) const {
        throw std::runtime_error(where_ + ": malformed point line: " + what +
                                 " at column " + std::to_string(pos_ + 1));
    }

    /// Next non-blank character ('\0' at the end of the line).
    char peek() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
            ++pos_;
        }
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool eat(char c) {
        const bool hit = peek() == c;
        pos_ += hit ? 1 : 0;
        return hit;
    }

    void expect(char c) {
        if (!eat(c)) { fail((std::string{"expected '"} + c + "'").c_str()); }
    }

    bool literal(std::string_view word) {
        peek(); // skip blanks
        if (text_.substr(pos_, word.size()) != word) { return false; }
        pos_ += word.size();
        return true;
    }

    /// Numbers via `from_chars`: no sign on unsigned fields, range-checked.
    template <typename T>
    void parse_number(T& v) {
        peek(); // skip blanks
        const auto [end, ec] =
            std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
        if (ec != std::errc{}) { fail("bad number"); }
        pos_ = static_cast<std::size_t>(end - text_.data());
    }

    void parse_value(std::uint64_t& v) { parse_number(v); }
    void parse_value(unsigned& v) { parse_number(v); }
    void parse_value(std::string& v) { v = parse_string(); }

    void parse_value(bool& v) {
        v = literal("true");
        if (!v && !literal("false")) { fail("expected true or false"); }
    }

    void parse_value(double& v) {
        // The emitter writes non-finite doubles as null.
        if (literal("null")) {
            v = std::numeric_limits<double>::quiet_NaN();
        } else if (const char c = peek(); c == '-' || (c >= '0' && c <= '9')) {
            parse_number(v);
        } else {
            fail("expected a number");
        }
    }

    void parse_value(ProfileRow& row) {
        parse_object(row, [](const std::string&) { return false; });
    }

    template <typename T>
    void parse_value(std::vector<T>& v) {
        v.clear();
        expect('[');
        if (eat(']')) { return; }
        do {
            parse_value(v.emplace_back());
        } while (eat(','));
        expect(']');
    }

    /// `{"key": value, ...}` into `record`; `extra(key)` may consume the
    /// value of a key outside the record's table.
    template <typename Record, typename Extra>
    void parse_object(Record& record, Extra&& extra) {
        expect('{');
        if (eat('}')) { return; }
        do {
            const std::string key = parse_string();
            expect(':');
            bool known = false;
            Record::for_each_field([&](const char* name, auto member, FieldTag) {
                if (!known && key == name) {
                    parse_value(record.*member);
                    known = true;
                }
            });
            if (!known && !extra(key)) { skip_value(0); }
        } while (eat(','));
        expect('}');
    }

    std::string parse_string() {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kChars = "\"\\/\b\f\n\r\t";
        expect('"');
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') { return out; }
            if (static_cast<unsigned char>(c) < 0x20) { fail("control character in a string"); }
            if (c != '\\' || pos_ == text_.size()) {
                out += c;
            } else if (const std::size_t k = kEscapes.find(text_[pos_]); k != kEscapes.npos) {
                out += kChars[k];
                ++pos_;
            } else {
                // \u00XX: the emitter escapes only control characters this way.
                unsigned code = 0x80;
                const char* first = text_.data() + pos_ + 1;
                if (text_[pos_] != 'u' || text_.size() - pos_ < 5 ||
                    std::from_chars(first, first + 4, code, 16).ptr != first + 4 ||
                    code >= 0x80) {
                    fail("unsupported escape");
                }
                out += static_cast<char>(code);
                pos_ += 5;
            }
        }
        fail("unterminated string");
    }

    /// Skips any JSON value (keys outside the tables, such as the derived
    /// `sim_cycles_per_sec`); nesting is bounded so hostile input cannot
    /// exhaust the stack.
    void skip_value(int depth) {
        const char open = peek();
        if (open == '"') {
            (void)parse_string();
        } else if (open != '{' && open != '[') {
            double ignored = 0;
            if (!literal("true") && !literal("false")) { parse_value(ignored); }
        } else if (depth > 32) {
            fail("value nested too deeply");
        } else {
            ++pos_;
            const char close = open == '{' ? '}' : ']';
            if (eat(close)) { return; }
            do {
                if (open == '{') {
                    (void)parse_string();
                    expect(':');
                }
                skip_value(depth + 1);
            } while (eat(','));
            expect(close);
        }
    }

    std::string_view text_;
    std::string where_;
    std::size_t pos_ = 0;
};

/// One point of a dump: its result and, when the point carries one, the
/// `config_hash` of the config that produced it.
struct DumpPoint {
    std::optional<std::uint64_t> hash;
    ScenarioResult result;
};

/// Every point of a `write_json` dump, in file order. The emitter writes
/// one object per line, so after the document's opening line each line
/// starting with '{' is one point; header lines are skipped.
std::vector<DumpPoint> read_dump(const std::string& path) {
    std::vector<DumpPoint> points;
    std::ifstream in{path};
    std::string line;
    for (std::size_t n = 1; std::getline(in, line); ++n) {
        const std::size_t first = line.find_first_not_of(" \t");
        if (n == 1 || first == std::string::npos || line[first] != '{') { continue; }
        DumpPoint& p = points.emplace_back();
        PointParser{line, path + ":" + std::to_string(n)}.parse(p.result, p.hash);
    }
    return points;
}

/// A field's value as the dump writes it, looked up by JSON key.
std::string field_text(const ScenarioResult& r, const std::string& key) {
    std::ostringstream os;
    ScenarioResult::for_each_field([&](const char* name, auto member, FieldTag) {
        if (key == name) { write_value(os, r.*member); }
    });
    return os.str();
}

} // namespace

std::unordered_map<std::uint64_t, ScenarioResult>
load_json_results(const std::string& path) {
    std::unordered_map<std::uint64_t, ScenarioResult> cache;
    for (DumpPoint& p : read_dump(path)) {
        if (p.hash) { cache.emplace(*p.hash, std::move(p.result)); }
    }
    return cache;
}

std::unordered_map<std::string, ScenarioResult>
load_json_results_by_label(const std::string& path) {
    std::unordered_map<std::string, ScenarioResult> cache;
    for (DumpPoint& p : read_dump(path)) {
        std::string label = p.result.label;
        cache.emplace(std::move(label), std::move(p.result));
    }
    return cache;
}

std::vector<ProfileRow> load_profile_rows(const std::string& path) {
    std::vector<ProfileRow> rows;
    for (const DumpPoint& p : read_dump(path)) {
        rows.insert(rows.end(), p.result.profile.begin(), p.result.profile.end());
    }
    return rows;
}

std::vector<std::string> compare_dumps(const std::string& a_path,
                                       const std::string& b_path) {
    const std::vector<DumpPoint> a = read_dump(a_path);
    const std::vector<DumpPoint> b = read_dump(b_path);
    std::vector<std::string> out;
    if (a.empty()) { out.push_back(a_path + ": no points"); }
    if (b.empty()) { out.push_back(b_path + ": no points"); }
    if (!out.empty()) { return out; }
    std::unordered_map<std::string, const ScenarioResult*> b_by_label;
    for (const DumpPoint& p : b) { b_by_label.emplace(p.result.label, &p.result); }
    std::unordered_set<std::string> in_a;
    for (const DumpPoint& p : a) {
        const ScenarioResult& ra = p.result;
        in_a.insert(ra.label);
        const auto it = b_by_label.find(ra.label);
        if (it == b_by_label.end()) {
            out.push_back("'" + ra.label + "': only in " + a_path);
            continue;
        }
        for (const std::string& key : semantic_mismatches(ra, *it->second)) {
            out.push_back("'" + ra.label + "' " + key + ": " + field_text(ra, key) +
                          " vs " + field_text(*it->second, key));
        }
    }
    for (const DumpPoint& p : b) {
        if (!in_a.contains(p.result.label)) {
            out.push_back("'" + p.result.label + "': only in " + b_path);
        }
    }
    return out;
}

DiffReport diff_against_baseline(const std::string& baseline_path,
                                 const std::vector<ScenarioResult>& results,
                                 double rel_threshold, std::uint64_t abs_slack,
                                 double speed_threshold, double speed_slack) {
    const std::unordered_map<std::string, ScenarioResult> baseline =
        load_json_results_by_label(baseline_path);
    DiffReport report;
    for (const ScenarioResult& r : results) {
        DiffEntry e;
        e.label = r.label;
        e.current_worst = worst_case_victim_latency(r);
        const auto it = baseline.find(r.label);
        if (it == baseline.end()) {
            e.missing_in_baseline = true;
            report.entries.push_back(std::move(e));
            continue;
        }
        ++report.compared;
        e.baseline_worst = worst_case_victim_latency(it->second);
        const bool health_regressed =
            (r.timed_out && !it->second.timed_out) ||
            (!r.boot_ok && it->second.boot_ok);
        const double limit =
            static_cast<double>(e.baseline_worst) * (1.0 + rel_threshold);
        const bool latency_regressed =
            static_cast<double>(e.current_worst) > limit &&
            e.current_worst > e.baseline_worst + abs_slack;
        e.regressed = health_regressed || latency_regressed;
        report.regressions += e.regressed ? 1U : 0U;

        // Separate host-speed gate: compares sim cycles / wall second
        // (recomputed from the stored fields, so old baselines work) and
        // never feeds into the latency verdict.
        if (speed_threshold > 0.0) {
            e.baseline_speed = it->second.sim_cycles_per_sec();
            e.current_speed = r.sim_cycles_per_sec();
            if (e.baseline_speed > 0.0 && e.current_speed > 0.0) {
                ++report.speed_compared;
                e.speed_regressed =
                    e.current_speed < e.baseline_speed * (1.0 - speed_threshold) &&
                    e.current_speed < e.baseline_speed - speed_slack;
                report.speed_regressions += e.speed_regressed ? 1U : 0U;
            }
        }
        report.entries.push_back(std::move(e));
    }
    return report;
}

} // namespace realm::scenario
