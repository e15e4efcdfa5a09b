/**
 * @file
 * The benchmark's three workloads and the harness that measures
 * them: repeated set-up, then passes until the run's time is spent.
 * An untraced pass runs the product path (sweep::run_sweep, or the
 * characterize sequence); a traced pass runs the same work through
 * layers.h with one span per layer call.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

/** Command-line settings of one benchmark run. */
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for temporary caches and the span file. */
    std::string work_dir = ".bench_build";
};

/** What one run reports. */
struct RunReport {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** One line saying how the seed was used. */
    std::string seed_note;
};

/** @return the workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workload_names();

/**
 * Runs @p options.workload. Output checks that fail count in
 * RunReport::failed. @throws std::invalid_argument for an unknown
 * workload name.
 */
RunReport run_benchmark(const RunOptions &options);

}  // namespace perfbench
