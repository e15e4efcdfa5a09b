/**
 * @file
 * Unit tests of the benchmark's own helpers: nearest-rank
 * percentiles with their sample count, span self time, the peak-RSS
 * reader, the result line and the host speed probe. Exits 1 on the
 * first failed check.
 */
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::cerr << __FILE__ << ":" << __LINE__                     \
                      << ": check failed: " #cond "\n";                  \
            ++failures;                                                  \
        }                                                                \
    } while (0)

using perfbench::Span;

void
test_nearest_rank()
{
    const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    CHECK(perfbench::nearest_rank(ten, 50).value == 5);
    CHECK(perfbench::nearest_rank(ten, 50).samples == 10);
    CHECK(perfbench::nearest_rank(ten, 90).value == 9);
    CHECK(perfbench::nearest_rank(ten, 91).value == 10);
    CHECK(perfbench::nearest_rank(ten, 100).value == 10);
    // Rank is at least 1, so tiny percentiles pick the minimum.
    CHECK(perfbench::nearest_rank(ten, 0.01).value == 1);
    CHECK(perfbench::nearest_rank({42}, 99).value == 42);
    CHECK(perfbench::nearest_rank({42}, 99).samples == 1);
    const perfbench::Percentile empty = perfbench::nearest_rank({}, 50);
    CHECK(empty.value == 0 && empty.samples == 0);

    CHECK(perfbench::median({3, 1, 2}) == 2);
    CHECK(perfbench::median({4, 1, 2, 3}) == 2.5);
    CHECK(perfbench::median({}) == 0);
    CHECK(perfbench::mean({1, 2, 6}) == 3);
    CHECK(perfbench::mean({}) == 0);
}

Span
span(std::uint64_t id, std::uint64_t parent, const char *name,
     std::int64_t start, std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

void
test_self_time()
{
    // pass [0,100): scenario [10,90) holding layers [10,30) and
    // [40,80), export [90,95).
    const std::vector<Span> spans = {
        span(1, 0, "pass", 0, 100),   span(2, 1, "scenario", 10, 90),
        span(3, 2, "layer.a", 10, 30), span(4, 2, "layer.b", 40, 80),
        span(5, 1, "export", 90, 95),
    };
    const auto self = perfbench::self_times(spans);
    CHECK(self.at(1) == 100 - 80 - 5);
    CHECK(self.at(2) == 80 - 20 - 40);
    CHECK(self.at(3) == 20);
    CHECK(self.at(5) == 5);

    // Overlapping children (pool workers) count once; a child that
    // outlives its parent is clipped to the parent.
    const std::vector<Span> pool = {
        span(1, 0, "pass", 0, 100),     span(2, 1, "scenario", 0, 60),
        span(3, 1, "scenario", 20, 80), span(4, 1, "scenario", 90, 120),
    };
    const auto pool_self = perfbench::self_times(pool);
    CHECK(pool_self.at(1) == 100 - 80 - 10);
    CHECK(pool_self.at(4) == 30);

    const auto by_name = perfbench::self_time_by_name(pool);
    CHECK(by_name.at("scenario") == 60 + 60 + 30);
    CHECK(perfbench::duration_by_name(spans).at("layer.b") == 40);

    // The tracer hands out distinct ids and records on scope exit,
    // also when the timed call throws.
    perfbench::Tracer tracer;
    std::uint64_t outer_id = 0;
    try {
        perfbench::ScopedSpan outer(&tracer, "outer", 0);
        outer_id = outer.id();
        perfbench::ScopedSpan inner(&tracer, "inner", outer.id());
        throw 1;
    } catch (int) {
    }
    const std::vector<Span> taken = tracer.take();
    CHECK(taken.size() == 2);
    CHECK(taken[0].name == "inner" && taken[0].parent == outer_id);
    CHECK(taken[1].name == "outer" && taken[1].id == outer_id);
    CHECK(taken[1].end_ns >= taken[0].end_ns);
    CHECK(tracer.take().empty());

    perfbench::ScopedSpan off(nullptr, "off", 0);
    CHECK(off.id() == 0);
}

void
test_peak_rss()
{
    const std::string status = "Name:\tperfbench\n"
                               "VmPeak:\t  300000 kB\n"
                               "VmHWM:\t   40960 kB\n"
                               "VmRSS:\t   20480 kB\n";
    CHECK(perfbench::parse_vm_hwm_kb(status).value_or(0) == 40960);
    CHECK(!perfbench::parse_vm_hwm_kb("VmRSS:\t 1 kB\n"));
    CHECK(!perfbench::parse_vm_hwm_kb("VmHWM:\t lots kB\n"));
    CHECK(!perfbench::parse_vm_hwm_kb("VmHWM:\t 12 MB\n"));
    CHECK(!perfbench::parse_vm_hwm_kb(""));

    // The live reader sees at least the 64 MiB touched here.
    std::vector<char> touched(64u << 20, 1);
    const double mb = perfbench::peak_rss_mb();
    CHECK(mb >= 64.0 && mb < 1e6);
    CHECK(touched[touched.size() / 2] == 1);
}

void
test_result_json()
{
    const std::string line = perfbench::result_json(
        true, 126, 0,
        {{"wall_s", 2.5, "s"}, {"bad", std::nan(""), "x"},
         {"q\"uote", 1e-9, "1/s"}});
    CHECK(line == "{\"correct\": true, \"attempted\": 126, "
                  "\"failed\": 0, \"metrics\": {"
                  "\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}, "
                  "\"bad\": {\"value\": null, \"unit\": \"x\"}, "
                  "\"q\\\"uote\": {\"value\": 1.0000000000000001e-09, "
                  "\"unit\": \"1/s\"}}}");
}

void
test_speed_probe()
{
    perfbench::SpeedProbe probe;
    const double first = probe.time_s();
    const std::uint64_t digest = probe.digest();
    const double second = probe.time_s();
    CHECK(first > 0 && second > 0);
    CHECK(digest != 0);
    CHECK(probe.digest() == digest);
    // Each thread does the same work, so the digests add up.
    perfbench::SpeedProbe two(2);
    CHECK(two.time_s() > 0);
    CHECK(two.digest() == 2 * digest);

    const double ref = perfbench::kProbeReferenceS;
    // A host running at half the reference speed takes twice as long
    // for both the work and the probe.
    CHECK(std::abs(perfbench::at_reference_speed(3.0, 2 * ref) - 1.5) <
          1e-12);
    CHECK(std::abs(perfbench::at_reference_speed(3.0, ref) - 3.0) <
          1e-12);
    CHECK(perfbench::at_reference_speed(3.0, 0.0) == 0.0);
}

}  // namespace

int
main()
{
    test_nearest_rank();
    test_self_time();
    test_peak_rss();
    test_result_json();
    test_speed_probe();
    if (failures) {
        std::cerr << failures << " check(s) failed\n";
        return EXIT_FAILURE;
    }
    std::cout << "perfbench_selftest: all checks passed\n";
    return EXIT_SUCCESS;
}
