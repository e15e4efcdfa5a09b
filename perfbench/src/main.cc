/**
 * @file
 * perfbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--work-dir DIR]
 *
 * Prints one line echoing the workload and seed, then, as the last
 * line of standard output, one JSON object: correct, attempted,
 * failed and metrics (end-to-end metrics with --trace 0, per-layer
 * metrics with --trace 1). Progress and the self-time table go to
 * standard error. Exit code 2 on a usage error, 1 when the run
 * itself failed.
 */
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message
              << "\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n";
    return 2;
}

bool
parse_u64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
            return usage("expected '--flag value' pairs, got '" + flag +
                         "'");
        args[flag.substr(2)] = argv[i + 1];
    }
    perfbench::RunOptions options;
    std::uint64_t seconds = 0, trace = 0;
    for (const auto &[flag, value] : args) {
        if (flag == "workload")
            options.workload = value;
        else if (flag == "work-dir")
            options.work_dir = value;
        else if (flag == "seed") {
            if (!parse_u64(value, options.seed))
                return usage("--seed must be a whole number");
        } else if (flag == "seconds") {
            if (!parse_u64(value, seconds) || seconds < 1 ||
                seconds > 3600)
                return usage("--seconds must be 1..3600");
        } else if (flag == "trace") {
            if (!parse_u64(value, trace) || trace > 1)
                return usage("--trace must be 0 or 1");
        } else {
            return usage("unknown flag --" + flag);
        }
    }
    bool known = false;
    for (const auto &name : perfbench::workload_names())
        known = known || name == options.workload;
    if (!known || !args.count("seed") || !args.count("seconds") ||
        !args.count("trace"))
        return usage("--workload (one of zoo_train_serial, "
                     "serve_stream, zoo_dp_pool_cache), --seed, "
                     "--seconds and --trace are required");
    options.seconds = static_cast<double>(seconds);
    options.trace = trace == 1;

    try {
        const perfbench::RunReport report =
            perfbench::run_benchmark(options);
        bool finite = true;
        for (const auto &m : report.metrics)
            finite = finite && std::isfinite(m.value);
        std::cout << "perfbench: workload=" << options.workload
                  << " seed=" << options.seed << " (" << report.seed_note
                  << ") trace=" << trace << "\n"
                  << perfbench::result_json(report.failed == 0 && finite,
                                            report.attempted,
                                            report.failed,
                                            report.metrics)
                  << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: run failed: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
