/**
 * @file
 * The simulator's pipeline driven from outside, one public call per
 * layer, each call wrapped in a span. Nothing here reaches inside
 * src/: the layers are the functions a sweep row and the
 * characterize report are made of, called in the order
 * sweep::run_scenario's aggregation and the characterize command
 * call them.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "api/workload.h"
#include "bench_util.h"
#include "nn/models.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/device_spec.h"
#include "sweep/driver.h"
#include "sweep/scenario.h"

namespace perfbench {

/**
 * Deterministic work counters by metric name. Every value is a
 * simulated statistic or a count, so a fixed seed repeats it exactly.
 */
using Counters = std::map<std::string, double>;

/** Adds every counter of @p from into @p into. */
void add_counters(Counters &into, const Counters &from);

/** One scenario driven layer by layer. */
struct LayeredScenario {
    /** The row sweep::run_scenario would produce for the scenario. */
    pinpoint::sweep::ScenarioResult result;
    Counters counters;
    /**
     * False when the hybrid relief report predicts a smaller peak
     * reduction than some available single-mechanism report: the
     * planner guarantees it never does.
     */
    bool hybrid_dominates = true;
    /**
     * True when some available single-mechanism report *measured* a
     * larger peak reduction than the hybrid. Not guaranteed: the
     * measured numbers come from an open-loop replay of the plan.
     */
    bool hybrid_measured_shortfall = false;
    /** Host time of the allocator replay, which a plain run skips. */
    std::int64_t replay_ns = 0;
};

/**
 * Runs @p scenario as sweep::run_scenario does with swap planning
 * on, but calls each layer itself: WorkloadSpec::build, the session
 * driver, the Study's freeze/timeline/ATI facets, SwapPlanner::plan,
 * execute_plan and plan_relief_all, then destroys the Study. With a
 * tracer, every call gets a span under one "scenario" span parented
 * to @p parent, and with @p replay the recorded malloc/free sequence
 * is also replayed through a fresh allocator. Never throws; failures
 * land in the row's status as they do in the sweep.
 */
LayeredScenario run_scenario_layered(
    const pinpoint::sweep::Scenario &scenario, Tracer *tracer,
    std::uint64_t parent, bool replay);

/** One serving stream plus the characterize analyses. */
struct StreamOutcome {
    /** Empty when the stream and its analyses ran. */
    std::string error;
    int requests = 0;
    /** Requests whose completion follows their start and arrival. */
    int completed = 0;
    /** Simulated p50 <= p90 <= p99 <= max. */
    bool percentiles_ordered = false;
    /** Timeline builds after every analysis ran (must be 1). */
    std::size_t timeline_builds = 0;
    std::size_t report_bytes = 0;
    Counters counters;
    std::int64_t replay_ns = 0;
};

/**
 * Replays one request stream of @p model under @p config, then runs
 * the characterize analyses on it — view, timeline, ATIs, breakdown,
 * write_report — and destroys the Study. With a tracer, one span per
 * call under a "stream" span parented to @p parent, plus the
 * allocator replay.
 */
StreamOutcome run_stream(const pinpoint::api::WorkloadSpec &spec,
                         const pinpoint::nn::Model &model,
                         const pinpoint::runtime::InferenceConfig &config,
                         Tracer *tracer, std::uint64_t parent);

}  // namespace perfbench
