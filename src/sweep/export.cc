#include "sweep/export.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "api/workload.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/hash.h"
#include "core/parse.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sweep/driver.h"
#include "trace/chrome_trace.h"

namespace pinpoint {
namespace sweep {
namespace {

/** Compact "21.5 us" rendering for the summary table. */
std::string
fmt_us(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f us", us);
    return buf;
}

/** First line of a (possibly multi-line) error message. */
std::string
first_line(const std::string &s)
{
    const auto pos = s.find('\n');
    return pos == std::string::npos ? s : s.substr(0, pos);
}

/** Escapes a CSV field (quotes when it contains , " or newline). */
std::string
csv_escape(std::string s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else if (c == '\n')
            out += ' ';
        else
            out += c;
    }
    out += '"';
    return out;
}

/** Appends @p s to @p out, backslash-escaped to stay on one line. */
void
append_escaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default: out += c;
        }
    }
}

/** Inverse of append_escaped. @throws Error on a malformed escape. */
std::string
unescape_value(std::string s)
{
    if (s.find('\\') == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        PP_CHECK(i + 1 < s.size(),
                 "record value ends mid-escape: '" << s << "'");
        const char c = s[++i];
        switch (c) {
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          default:
              PP_CHECK(false,
                       "unknown record escape '\\" << c << "'");
        }
    }
    return out;
}

/**
 * @return the unescaped value of record line @p index, which must
 * read "<name>=...". @throws Error otherwise.
 */
std::string
record_value(const std::string &line, const char *name,
             std::size_t index)
{
    const std::size_t name_len = std::strlen(name);
    PP_CHECK(line.size() > name_len &&
                 line.compare(0, name_len, name) == 0 &&
                 line[name_len] == '=',
             "record line " << index << " is not '" << name
                            << "=...': '" << line << "'");
    return unescape_value(line.substr(name_len + 1));
}

// --- The result schema -------------------------------------------

/**
 * Column groups. Base columns are always exported; the other groups
 * appear only when some row needs them, so single-device and
 * train-only sweeps stay byte-identical to exports from before the
 * devices and serving axes existed.
 */
enum class Group { kBase, kMultiDevice, kServing };

/**
 * How a column's text is rendered and quoted. kText is free text:
 * the record keeps it whole, the exports keep its first line.
 */
enum class Kind { kUnsigned, kInt, kFixed6, kString, kText, kEnum };

/** One exported column of a ScenarioResult. */
struct Column {
    const char *name;
    Group group;
    Kind kind;
    /** Renders the value, unescaped. */
    std::function<std::string(const ScenarioResult &)> get;
    /**
     * Parses a record value back into the result. Empty for the
     * spec-derived columns: the record's one scenario= line carries
     * the whole WorkloadSpec, so they are export-only.
     */
    std::function<void(ScenarioResult &, const std::string &)> set;
};

template <class T>
constexpr Kind
kind_of()
{
    if constexpr (std::is_same_v<T, std::string>)
        return Kind::kString;
    else if constexpr (std::is_floating_point_v<T>)
        return Kind::kFixed6;
    else if constexpr (std::is_signed_v<T>)
        return Kind::kInt;
    else
        return Kind::kUnsigned;
}

/** Doubles render as format_fixed6, integers in decimal. */
template <class T>
std::string
render(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return v;
    else if constexpr (std::is_floating_point_v<T>)
        return format_fixed6(v);
    else
        return std::to_string(v);
}

/** Inverse of render. @throws Error on an unparseable value. */
template <class T>
void
parse_value(const char *name, const std::string &v, T &out)
{
    bool ok = true;
    if constexpr (std::is_same_v<T, std::string>) {
        out = v;
    } else if constexpr (std::is_floating_point_v<T>) {
        ok = parse_double(v, out);
    } else if constexpr (std::is_signed_v<T>) {
        ok = parse_int(v, out);
    } else {
        std::uint64_t parsed = 0;
        ok = parse_uint64(v, parsed);
        out = static_cast<T>(parsed);
    }
    PP_CHECK(ok, "record field " << name << " has a malformed value: '"
                                 << v << "'");
}

using R = ScenarioResult;
using W = api::WorkloadSpec;

/** A ScenarioResult member: exported and carried by the record. */
template <class T>
Column
field(const char *name, T R::*m, Group group = Group::kBase,
      Kind kind = kind_of<T>())
{
    return {name, group, kind,
            [m](const R &r) { return render(r.*m); },
            [name, m](R &r, const std::string &v) {
                parse_value(name, v, r.*m);
            }};
}

/** A WorkloadSpec member: export-only. */
template <class T>
Column
spec(const char *name, T W::*m, Group group = Group::kBase)
{
    return {name, group, kind_of<T>(),
            [m](const R &r) { return render(r.scenario.*m); },
            nullptr};
}

/** A WorkloadSpec enum, exported by name: export-only. */
template <class E>
Column
spec_enum(const char *name, E W::*m, const char *(*to_name)(E),
          Group group = Group::kBase)
{
    return {name, group, Kind::kEnum,
            [m, to_name](const R &r) {
                return std::string(to_name(r.scenario.*m));
            },
            nullptr};
}

/**
 * The result schema: every exported column, in export order. CSV,
 * JSON and the record codec are loops over this table, and
 * result_schema_salt() hashes it, so adding, removing, renaming,
 * regrouping or reordering a column, or moving it into or out of
 * the record, retires every on-disk record.
 */
const std::vector<Column> &
columns()
{
    static const std::vector<Column> table = [] {
        const Group multi = Group::kMultiDevice;
        const Group serving = Group::kServing;
        return std::vector<Column>{
            spec("model", &W::model),
            spec("batch", &W::batch),
            spec_enum("allocator", &W::allocator,
                      runtime::allocator_kind_name),
            spec("device", &W::device),
            spec("iterations", &W::iterations),
            {"status", Group::kBase, Kind::kEnum,
             [](const R &r) {
                 return std::string(scenario_status_name(r.status));
             },
             [](R &r, const std::string &v) {
                 for (ScenarioStatus s :
                      {ScenarioStatus::kOk, ScenarioStatus::kOom,
                       ScenarioStatus::kError}) {
                     if (v == scenario_status_name(s)) {
                         r.status = s;
                         return;
                     }
                 }
                 PP_CHECK(false, "unknown scenario status '" << v
                                                             << "'");
             }},
            field("error", &R::error, Group::kBase, Kind::kText),
            field("peak_total_bytes", &R::peak_total_bytes),
            field("peak_input_bytes", &R::peak_input_bytes),
            field("peak_parameter_bytes", &R::peak_parameter_bytes),
            field("peak_intermediate_bytes",
                  &R::peak_intermediate_bytes),
            field("peak_reserved_bytes", &R::peak_reserved_bytes),
            field("device_fragmentation", &R::device_fragmentation),
            field("iteration_time_ns", &R::iteration_time),
            field("end_time_ns", &R::end_time),
            field("alloc_count", &R::alloc_count),
            field("cache_hit_count", &R::cache_hit_count),
            field("device_alloc_count", &R::device_alloc_count),
            field("event_count", &R::event_count),
            field("ati_count", &R::ati_count),
            field("ati_median_us", &R::ati_median_us),
            field("ati_p90_us", &R::ati_p90_us),
            field("ati_max_us", &R::ati_max_us),
            field("swap_decisions", &R::swap_decisions),
            field("swap_peak_reduction_bytes",
                  &R::swap_peak_reduction_bytes),
            field("swap_total_bytes", &R::swap_total_bytes),
            field("swap_measured_peak_reduction_bytes",
                  &R::swap_measured_peak_reduction_bytes),
            field("swap_predicted_stall_ns",
                  &R::swap_predicted_stall_ns),
            field("swap_measured_stall_ns", &R::swap_measured_stall_ns),
            field("swap_link_busy_fraction",
                  &R::swap_link_busy_fraction),
            field("relief_strategy", &R::relief_strategy),
            field("relief_peak_reduction_bytes",
                  &R::relief_peak_reduction_bytes),
            field("relief_overhead_ns", &R::relief_overhead_ns),
            spec("devices", &W::devices, multi),
            spec("topology", &W::topology, multi),
            field("scaling_efficiency", &R::scaling_efficiency, multi),
            field("interconnect_busy_fraction",
                  &R::interconnect_busy_fraction, multi),
            field("allreduce_time_ns", &R::allreduce_time_ns, multi),
            field("allreduce_stall_ns", &R::allreduce_stall_ns, multi),
            spec_enum("mode", &W::mode, runtime::session_mode_name,
                      serving),
            spec_enum("dtype", &W::dtype, dtype_name, serving),
            field("requests", &R::requests, serving),
            spec_enum("arrival", &W::arrival,
                      runtime::arrival_kind_name, serving),
            field("latency_p50_ns", &R::latency_p50_ns, serving),
            field("latency_p90_ns", &R::latency_p90_ns, serving),
            field("latency_p99_ns", &R::latency_p99_ns, serving),
            field("latency_max_ns", &R::latency_max_ns, serving),
        };
    }();
    return table;
}

/** The optional column groups a report shows, decided once. */
struct Gates {
    bool multi_device = false;
    bool serving = false;

    explicit Gates(const SweepReport &report)
    {
        for (const auto &r : report.results) {
            multi_device = multi_device || r.scenario.devices > 1;
            serving = serving ||
                      r.scenario.mode == runtime::SessionMode::kInfer ||
                      r.scenario.dtype != DType::kF32;
        }
    }

    bool shows(Group g) const
    {
        return g == Group::kBase ||
               (g == Group::kMultiDevice ? multi_device : serving);
    }
};

/** @return the columns @p report exports, in order. */
std::vector<const Column *>
exported_columns(const SweepReport &report)
{
    const Gates gates(report);
    std::vector<const Column *> out;
    for (const Column &c : columns())
        if (gates.shows(c.group))
            out.push_back(&c);
    return out;
}

/** @return @p c's exported text for @p r (unquoted, unescaped). */
std::string
export_text(const Column &c, const ScenarioResult &r)
{
    std::string v = c.get(r);
    if (c.kind == Kind::kText)
        return first_line(v);
    return v;
}

/** The record's first line carries the whole WorkloadSpec. */
const char *const kScenarioKey = "scenario";

}  // namespace

void
write_sweep_csv(const SweepReport &report, std::ostream &os)
{
    const auto cols = exported_columns(report);
    for (std::size_t i = 0; i < cols.size(); ++i)
        os << (i ? "," : "") << cols[i]->name;
    os << '\n';
    // Rows are assembled in a string and streamed once: one stream
    // insertion per row instead of several per cell.
    std::string line;
    for (const auto &r : report.results) {
        line.clear();
        for (std::size_t i = 0; i < cols.size(); ++i) {
            if (i)
                line += ',';
            line += csv_escape(export_text(*cols[i], r));
        }
        line += '\n';
        os << line;
    }
}

void
write_sweep_json(const SweepReport &report, std::ostream &os)
{
    const auto cols = exported_columns(report);
    os << "{\n  \"scenarios\": [\n";
    std::string line;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        line = "    {";
        for (std::size_t j = 0; j < cols.size(); ++j) {
            const Column &c = *cols[j];
            const std::string v = export_text(c, report.results[i]);
            line += j ? ", \"" : "\"";
            line += c.name;
            line += "\": ";
            if (c.kind == Kind::kString || c.kind == Kind::kText ||
                c.kind == Kind::kEnum)
                line += '"' + trace::json_escape(v) + '"';
            else
                line += v;
        }
        line += i + 1 < report.results.size() ? "},\n" : "}\n";
        os << line;
    }
    os << "  ],\n  \"summary\": {\"scenarios\": "
       << report.results.size()
       << ", \"succeeded\": " << report.succeeded
       << ", \"oom\": " << report.oom
       << ", \"failed\": " << report.failed << "}\n}\n";
}

void
write_sweep_csv_file(const SweepReport &report, const std::string &path)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_sweep_csv(report, os);
    PP_CHECK(os.good(), "write to '" << path << "' failed");
}

void
write_sweep_json_file(const SweepReport &report, const std::string &path)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_sweep_json(report, os);
    PP_CHECK(os.good(), "write to '" << path << "' failed");
}

std::string
sweep_csv_string(const SweepReport &report)
{
    std::ostringstream os;
    write_sweep_csv(report, os);
    return os.str();
}

std::string
sweep_json_string(const SweepReport &report)
{
    std::ostringstream os;
    write_sweep_json(report, os);
    return os.str();
}

void
write_sweep_table(const SweepReport &report, std::ostream &os)
{
    const Gates gates(report);
    os << pad("scenario", 36) << pad("status", 8) << pad("peak", 12)
       << pad("reserved", 12) << pad("iter time", 12)
       << pad("ATI p50", 12) << pad("swap save", 12)
       << pad("meas save", 12) << pad("meas stall", 12)
       << pad("relief", 10) << pad("relief save", 12);
    if (gates.multi_device)
        os << pad("dp eff", 8);
    if (gates.serving)
        os << pad("lat p50", 12) << pad("lat p99", 12);
    os << "\n";
    for (const auto &r : report.results) {
        os << pad(r.scenario.id(), 36)
           << pad(scenario_status_name(r.status), 8);
        if (r.status == ScenarioStatus::kOk) {
            os << pad(format_bytes(r.peak_total_bytes), 12)
               << pad(format_bytes(r.peak_reserved_bytes), 12)
               << pad(format_time(r.iteration_time), 12)
               << pad(fmt_us(r.ati_median_us), 12)
               << pad(format_bytes(r.swap_peak_reduction_bytes), 12)
               << pad(format_bytes(
                          r.swap_measured_peak_reduction_bytes),
                      12)
               << pad(format_time(r.swap_measured_stall_ns), 12)
               << pad(r.relief_strategy.empty() ? "-"
                                                : r.relief_strategy,
                      10)
               << pad(format_bytes(r.relief_peak_reduction_bytes),
                      12);
            if (gates.multi_device) {
                char eff[16];
                std::snprintf(eff, sizeof eff, "%.3f",
                              r.scaling_efficiency);
                os << pad(eff, 8);
            }
            if (gates.serving)
                os << pad(r.requests > 0
                              ? format_time(r.latency_p50_ns)
                              : "-",
                          12)
                   << pad(r.requests > 0
                              ? format_time(r.latency_p99_ns)
                              : "-",
                          12);
        } else {
            os << first_line(r.error);
        }
        os << "\n";
    }
    os << report.results.size() << " scenarios: " << report.succeeded
       << " ok, " << report.oom << " oom, " << report.failed
       << " failed";
    char buf[64];
    std::snprintf(buf, sizeof buf, " in %.2f s (jobs=%d)\n",
                  report.wall_seconds, report.jobs);
    os << buf;
}

// --- ScenarioResult record codec ---------------------------------

std::size_t
result_record_lines()
{
    static const std::size_t lines = [] {
        std::size_t n = 1;  // the scenario= line
        for (const Column &c : columns())
            n += c.set ? 1 : 0;
        return n;
    }();
    return lines;
}

std::string
result_schema_salt()
{
    std::uint64_t h = fnv1a64(std::string(kScenarioKey) + "\n");
    for (const Column &c : columns())
        h = fnv1a64(std::string(c.name) + "\t" +
                        std::to_string(static_cast<int>(c.group)) +
                        (c.set ? "\trecord\n" : "\n"),
                    h);
    return to_hex16(h);
}

std::string
encode_result_record(const ScenarioResult &result)
{
    std::string out = kScenarioKey;
    out += '=';
    append_escaped(out, result.scenario.to_string());
    out += '\n';
    for (const Column &c : columns()) {
        if (!c.set)
            continue;
        out += c.name;
        out += '=';
        append_escaped(out, c.get(result));
        out += '\n';
    }
    return out;
}

ScenarioResult
decode_result_record(const std::vector<std::string> &lines,
                     std::size_t first)
{
    const std::size_t n = result_record_lines();
    PP_CHECK(first <= lines.size() && n <= lines.size() - first,
             "record truncated: need " << n << " lines, have "
                                       << lines.size() - first);
    ScenarioResult result;
    static_cast<api::WorkloadSpec &>(result.scenario) =
        api::WorkloadSpec::from_string(
            record_value(lines[first], kScenarioKey, 0));
    std::size_t i = 1;
    for (const Column &c : columns()) {
        if (!c.set)
            continue;
        c.set(result, record_value(lines[first + i], c.name, i));
        ++i;
    }
    return result;
}

}  // namespace sweep
}  // namespace pinpoint
