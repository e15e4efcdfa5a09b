/**
 * @file
 * Sweep exporters and the record codec: stable CSV schema,
 * well-formed JSON, correct escaping, reproducible bytes, and
 * seeded round-trip and damaged-record properties of the codec.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/dtype.h"
#include "core/hash.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sweep/driver.h"
#include "sweep/export.h"

namespace pinpoint {
namespace sweep {
namespace {

/** @return line @p n (0-based) of @p text. */
std::string
line(const std::string &text, std::size_t n)
{
    std::istringstream is(text);
    std::string current;
    for (std::size_t i = 0; i <= n; ++i)
        if (!std::getline(is, current))
            return "";
    return current;
}

std::size_t
count_lines(const std::string &text)
{
    std::size_t lines = 0;
    for (char c : text)
        if (c == '\n')
            ++lines;
    return lines;
}

SweepReport
tiny_report()
{
    SweepGrid grid;
    grid.models = {"mlp"};
    grid.batches = {16, 32};
    grid.allocators = {runtime::AllocatorKind::kCaching};
    return run_sweep(grid);
}

TEST(SweepExport, CsvSchemaIsStable)
{
    const auto csv = sweep_csv_string(tiny_report());
    EXPECT_EQ(line(csv, 0),
              "model,batch,allocator,device,iterations,status,error,"
              "peak_total_bytes,peak_input_bytes,peak_parameter_bytes,"
              "peak_intermediate_bytes,peak_reserved_bytes,"
              "device_fragmentation,iteration_time_ns,end_time_ns,"
              "alloc_count,cache_hit_count,device_alloc_count,"
              "event_count,ati_count,ati_median_us,ati_p90_us,"
              "ati_max_us,swap_decisions,swap_peak_reduction_bytes,"
              "swap_total_bytes,swap_measured_peak_reduction_bytes,"
              "swap_predicted_stall_ns,swap_measured_stall_ns,"
              "swap_link_busy_fraction,relief_strategy,"
              "relief_peak_reduction_bytes,relief_overhead_ns");
    EXPECT_EQ(count_lines(csv), 3u);  // header + 2 scenarios
    EXPECT_EQ(line(csv, 1).substr(0, 24), "mlp,16,caching,titan-x,5");
}

TEST(SweepExport, CsvEscapesReservedCharacters)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "mlp";
    r.status = ScenarioStatus::kError;
    r.error = "bad, \"worse\"\nsecond line";
    report.results.push_back(r);
    const auto csv = sweep_csv_string(report);
    // Field quoted, quotes doubled, and only the first line kept.
    EXPECT_NE(line(csv, 1).find("\"bad, \"\"worse\"\"\""),
              std::string::npos);
    EXPECT_EQ(count_lines(csv), 2u);
}

TEST(SweepExport, JsonIsBalancedAndCarriesSummary)
{
    const auto report = tiny_report();
    const auto json = sweep_json_string(report);
    std::size_t braces = 0, brackets = 0;
    for (char c : json) {
        if (c == '{') ++braces;
        if (c == '}') --braces;
        if (c == '[') ++brackets;
        if (c == ']') --brackets;
    }
    EXPECT_EQ(braces, 0u);
    EXPECT_EQ(brackets, 0u);
    EXPECT_NE(json.find("\"scenarios\": ["), std::string::npos);
    EXPECT_NE(json.find("\"summary\": {\"scenarios\": 2, "
                        "\"succeeded\": 2, \"oom\": 0, "
                        "\"failed\": 0}"),
              std::string::npos);
    EXPECT_NE(json.find("\"model\": \"mlp\""), std::string::npos);
    // The measured-vs-predicted swap columns ride along per row.
    EXPECT_NE(json.find("\"swap_measured_peak_reduction_bytes\""),
              std::string::npos);
    EXPECT_NE(json.find("\"swap_measured_stall_ns\""),
              std::string::npos);
    EXPECT_NE(json.find("\"swap_link_busy_fraction\""),
              std::string::npos);
    // The unified-relief winner columns ride along too.
    EXPECT_NE(json.find("\"relief_strategy\""), std::string::npos);
    EXPECT_NE(json.find("\"relief_peak_reduction_bytes\""),
              std::string::npos);
    EXPECT_NE(json.find("\"relief_overhead_ns\""),
              std::string::npos);
}

TEST(SweepExport, JsonEscapesErrorStrings)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "mlp";
    r.status = ScenarioStatus::kError;
    r.error = "path \"x\\y\"";
    report.results.push_back(r);
    const auto json = sweep_json_string(report);
    EXPECT_NE(json.find("\"error\": \"path \\\"x\\\\y\\\"\""),
              std::string::npos);
}

TEST(SweepExport, RepeatedExportIsByteIdentical)
{
    const auto report = tiny_report();
    EXPECT_EQ(sweep_csv_string(report), sweep_csv_string(report));
    EXPECT_EQ(sweep_json_string(report), sweep_json_string(report));
    // And a re-run of the same grid reproduces the same bytes.
    EXPECT_EQ(sweep_csv_string(report),
              sweep_csv_string(tiny_report()));
}

TEST(SweepExport, TableHasOneRowPerScenario)
{
    const auto report = tiny_report();
    std::ostringstream os;
    write_sweep_table(report, os);
    // header + 2 scenarios + summary line
    EXPECT_EQ(count_lines(os.str()), 4u);
    EXPECT_NE(os.str().find("2 scenarios: 2 ok, 0 oom, 0 failed"),
              std::string::npos);
}

TEST(SweepExport, FileWritersRejectBadPaths)
{
    const auto report = tiny_report();
    EXPECT_THROW(
        write_sweep_csv_file(report, "/nonexistent-dir/out.csv"),
        Error);
    EXPECT_THROW(
        write_sweep_json_file(report, "/nonexistent-dir/out.json"),
        Error);
}

// --- ScenarioResult record codec ---------------------------------

/** Splits @p text into its lines (no trailing empties). */
std::vector<std::string>
split_lines(const std::string &text)
{
    std::istringstream is(text);
    std::vector<std::string> lines;
    std::string current;
    while (std::getline(is, current))
        lines.push_back(current);
    return lines;
}

/** A result with every field set to a distinctive value. */
ScenarioResult
distinctive_result()
{
    ScenarioResult r;
    r.scenario.model = "alexnet";
    r.scenario.batch = 48;
    r.scenario.iterations = 7;
    r.scenario.devices = 2;
    r.scenario.topology = "nvlink";
    r.status = ScenarioStatus::kError;
    r.error = "line one\nline two \\ with backslash\r";
    r.peak_total_bytes = 111;
    r.peak_input_bytes = 222;
    r.peak_parameter_bytes = 333;
    r.peak_intermediate_bytes = 444;
    r.peak_reserved_bytes = 555;
    r.device_fragmentation = 0.25;
    r.iteration_time = 666;
    r.end_time = 777;
    r.alloc_count = 888;
    r.cache_hit_count = 999;
    r.device_alloc_count = 1010;
    r.event_count = 1111;
    r.ati_count = 1212;
    r.ati_median_us = 1.5;
    r.ati_p90_us = 2.5;
    r.ati_max_us = 3.5;
    r.swap_decisions = 13;
    r.swap_peak_reduction_bytes = 1414;
    r.swap_total_bytes = 1515;
    r.swap_measured_peak_reduction_bytes = 1616;
    r.swap_predicted_stall_ns = 1717;
    r.swap_measured_stall_ns = 1818;
    r.swap_link_busy_fraction = 0.75;
    r.scaling_efficiency = 0.875;
    r.interconnect_busy_fraction = 0.125;
    r.allreduce_time_ns = 1919;
    r.allreduce_stall_ns = 2020;
    r.requests = 21;
    r.latency_p50_ns = 2222;
    r.latency_p90_ns = 2323;
    r.latency_p99_ns = 2424;
    r.latency_max_ns = 2525;
    r.relief_strategy = "hybrid";
    r.relief_peak_reduction_bytes = 2626;
    r.relief_overhead_ns = 2727;
    return r;
}

TEST(ResultRecordCodec, RoundTripsEveryField)
{
    const ScenarioResult original = distinctive_result();
    const std::string encoded = encode_result_record(original);
    const auto lines = split_lines(encoded);
    ASSERT_EQ(lines.size(), result_record_lines());

    const ScenarioResult decoded = decode_result_record(lines, 0);
    // Field-by-field equality via the codec itself: identical
    // encodings mean identical field values (and identical export
    // bytes, since both use the same formatting).
    EXPECT_EQ(encode_result_record(decoded), encoded);
    EXPECT_EQ(decoded.scenario.id(), original.scenario.id());
    EXPECT_EQ(decoded.error, original.error);
    EXPECT_EQ(decoded.requests, original.requests);
    EXPECT_EQ(decoded.relief_strategy, original.relief_strategy);
}

TEST(ResultRecordCodec, DecodedResultsExportByteIdentically)
{
    const auto report = tiny_report();
    SweepReport decoded = report;
    for (auto &r : decoded.results)
        r = decode_result_record(
            split_lines(encode_result_record(r)), 0);
    EXPECT_EQ(sweep_csv_string(decoded), sweep_csv_string(report));
    EXPECT_EQ(sweep_json_string(decoded),
              sweep_json_string(report));
}

TEST(ResultRecordCodec, SaltIsStableHex16)
{
    const std::string salt = result_schema_salt();
    ASSERT_EQ(salt.size(), 16u);
    for (char c : salt)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << c;
    EXPECT_EQ(salt, result_schema_salt());
}

TEST(ResultRecordCodec, DecodeRejectsTamperedRecords)
{
    const auto lines =
        split_lines(encode_result_record(distinctive_result()));

    auto truncated = lines;
    truncated.pop_back();
    EXPECT_THROW(decode_result_record(truncated, 0), Error);

    auto renamed = lines;
    renamed[3] = "not_a_field=1";
    EXPECT_THROW(decode_result_record(renamed, 0), Error);

    auto bad_number = lines;
    bad_number[3] = "peak_total_bytes=12abc";
    EXPECT_THROW(decode_result_record(bad_number, 0), Error);

    auto bad_status = lines;
    bad_status[1] = "status=meh";
    EXPECT_THROW(decode_result_record(bad_status, 0), Error);
}

/** Seeded draws from the splitmix64 counter mixer. */
struct Draws {
    std::uint64_t counter = 0;

    std::uint64_t operator()() { return splitmix64(counter++); }

    std::uint64_t operator()(std::uint64_t bound)
    {
        return (*this)() % bound;
    }

    template <class T, std::size_t N>
    const T &pick(const T (&options)[N])
    {
        return options[(*this)(N)];
    }

    /** A short string over the characters every format escapes. */
    std::string text()
    {
        static const char alphabet[] = {'a', 'Z', '0', ' ',  ',',
                                        '"', '\\', '\n', '\r', '='};
        std::string out;
        for (std::uint64_t n = (*this)(12); n > 0; --n)
            out += pick(alphabet);
        return out;
    }

    /** A double whose %.6f text round-trips (what the codec keeps). */
    double number()
    {
        const double magnitude = static_cast<double>((*this)(1000000000));
        return ((*this)(4) == 0 ? -magnitude : magnitude) /
               static_cast<double>(1 + (*this)(1000000));
    }
};

/** A random, decodable result: valid spec, arbitrary payload. */
ScenarioResult
random_result(Draws &draw)
{
    static const char *const models[] = {"mlp", "resnet18", "alexnet"};
    static const char *const devices[] = {"titan-x", "a100", "tiny"};
    static const char *const topologies[] = {"pcie", "nvlink"};
    static const runtime::AllocatorKind allocators[] = {
        runtime::AllocatorKind::kCaching,
        runtime::AllocatorKind::kDirect,
        runtime::AllocatorKind::kBuddy};
    static const DType dtypes[] = {DType::kF32, DType::kF16};
    static const runtime::ArrivalKind arrivals[] = {
        runtime::ArrivalKind::kSteady, runtime::ArrivalKind::kUniform,
        runtime::ArrivalKind::kBursty};
    static const ScenarioStatus statuses[] = {
        ScenarioStatus::kOk, ScenarioStatus::kOom,
        ScenarioStatus::kError};

    ScenarioResult r;
    Scenario &s = r.scenario;
    s.model = draw.pick(models);
    s.batch = 1 + static_cast<std::int64_t>(draw(512));
    s.iterations = 1 + static_cast<int>(draw(9));
    s.allocator = draw.pick(allocators);
    s.device = draw.pick(devices);
    s.topology = draw.pick(topologies);
    s.dtype = draw.pick(dtypes);
    s.requests = 1 + static_cast<int>(draw(64));
    s.arrival = draw.pick(arrivals);
    if (draw(3) == 0)
        s.mode = runtime::SessionMode::kInfer;  // single-device only
    else
        s.devices = 1 + static_cast<int>(draw(4));
    r.status = draw.pick(statuses);
    r.error = draw.text();
    r.relief_strategy = draw.text();
    for (std::size_t *v :
         {&r.peak_total_bytes, &r.peak_input_bytes,
          &r.peak_parameter_bytes, &r.peak_intermediate_bytes,
          &r.peak_reserved_bytes, &r.event_count, &r.ati_count,
          &r.swap_decisions, &r.swap_peak_reduction_bytes,
          &r.swap_total_bytes, &r.swap_measured_peak_reduction_bytes,
          &r.relief_peak_reduction_bytes})
        *v = draw();
    for (std::uint64_t *v :
         {&r.iteration_time, &r.end_time, &r.alloc_count,
          &r.cache_hit_count, &r.device_alloc_count,
          &r.swap_predicted_stall_ns, &r.swap_measured_stall_ns,
          &r.allreduce_time_ns, &r.allreduce_stall_ns,
          &r.latency_p50_ns, &r.latency_p90_ns, &r.latency_p99_ns,
          &r.latency_max_ns, &r.relief_overhead_ns})
        *v = draw();
    for (double *v :
         {&r.device_fragmentation, &r.ati_median_us, &r.ati_p90_us,
          &r.ati_max_us, &r.swap_link_busy_fraction,
          &r.scaling_efficiency, &r.interconnect_busy_fraction})
        *v = draw.number();
    r.requests = static_cast<int>(draw(200001)) - 100000;
    return r;
}

/** @return a one-row report around @p r. */
SweepReport
report_of(const ScenarioResult &r)
{
    SweepReport report;
    report.results.push_back(r);
    return report;
}

TEST(ResultRecordCodec, SeededRandomResultsRoundTripAndExportIdentically)
{
    Draws draw;
    SweepReport originals;
    SweepReport decoded;
    for (int i = 0; i < 300; ++i) {
        const ScenarioResult r = random_result(draw);
        const std::string encoded = encode_result_record(r);
        const auto lines = split_lines(encoded);
        ASSERT_EQ(lines.size(), result_record_lines()) << encoded;
        const ScenarioResult back = decode_result_record(lines, 0);
        ASSERT_EQ(encode_result_record(back), encoded);
        // Each row alone (its own column groups) and all rows
        // together export the same bytes decoded or not.
        EXPECT_EQ(sweep_csv_string(report_of(back)),
                  sweep_csv_string(report_of(r)));
        EXPECT_EQ(sweep_json_string(report_of(back)),
                  sweep_json_string(report_of(r)));
        originals.results.push_back(r);
        decoded.results.push_back(back);
    }
    EXPECT_EQ(sweep_csv_string(decoded), sweep_csv_string(originals));
    EXPECT_EQ(sweep_json_string(decoded), sweep_json_string(originals));
}

/**
 * Decodes @p lines; a damaged record must either throw Error or
 * decode to a result whose encoding is a codec fixed point.
 * @return true when it decoded.
 */
bool
decodes_to_fixed_point(const std::vector<std::string> &lines)
{
    ScenarioResult damaged;
    try {
        damaged = decode_result_record(lines, 0);
    } catch (const Error &) {
        return false;
    }
    const std::string once = encode_result_record(damaged);
    EXPECT_EQ(encode_result_record(
                  decode_result_record(split_lines(once), 0)),
              once);
    return true;
}

TEST(ResultRecordCodec, DamagedRecordsThrowOrDecodeToAFixedPoint)
{
    Draws draw;
    draw.counter = 1u << 20;  // a stream apart from the round-trip test
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (int i = 0; i < 200; ++i) {
        const std::string text =
            encode_result_record(random_result(draw));
        std::vector<std::vector<std::string>> damaged;
        damaged.push_back(split_lines(text.substr(0, draw(text.size()))));
        for (int flips = 0; flips < 3; ++flips) {
            std::string flipped = text;
            flipped[draw(text.size())] ^=
                static_cast<char>(1 + draw(255));
            damaged.push_back(split_lines(flipped));
        }
        auto dropped = split_lines(text);
        dropped.erase(dropped.begin() +
                      static_cast<std::ptrdiff_t>(draw(dropped.size())));
        damaged.push_back(dropped);
        for (const auto &lines : damaged)
            ++(decodes_to_fixed_point(lines) ? decoded : rejected);
    }
    // Both outcomes occur: the check is not vacuous either way.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace sweep
}  // namespace pinpoint
