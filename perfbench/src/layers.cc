#include "layers.h"

#include <array>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/device_memory.h"
#include "analysis/report.h"
#include "analysis/trace_view.h"
#include "api/study.h"
#include "core/types.h"
#include "relief/strategy_planner.h"
#include "runtime/data_parallel.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "trace/event.h"

namespace perfbench {

using namespace pinpoint;

void
add_counters(Counters &into, const Counters &from)
{
    for (const auto &[name, value] : from)
        into[name] += value;
}

namespace {

/**
 * Replays @p result's recorded malloc/free sequence through a fresh
 * make_session_allocator of @p kind on @p device, timing only the
 * allocator calls in an "alloc.replay" span.
 * @return host ns of the whole replay, set-up included.
 */
std::int64_t
replay_allocations(const runtime::SessionResult &result,
                   runtime::AllocatorKind kind,
                   const sim::DeviceSpec &device, Tracer *tracer,
                   std::uint64_t parent)
{
    const std::int64_t start = now_ns();
    {
        // Lower the trace to (malloc size | free slot) operations
        // first, so the span times allocator calls and nothing else.
        // The returned time covers the whole block, destructors
        // included: callers leave it out of the traced wall time.
        struct Op {
            bool malloc;
            std::size_t size;
            std::size_t slot;
        };
        std::vector<Op> ops;
        std::unordered_map<BlockId, std::size_t> live;
        std::size_t slots = 0;
        for (const trace::MemoryEvent &e : result.trace.events()) {
            if (e.kind == trace::EventKind::kMalloc) {
                live[e.block] = slots;
                ops.push_back({true, e.size, slots++});
            } else if (e.kind == trace::EventKind::kFree) {
                const auto it = live.find(e.block);
                if (it == live.end())
                    continue;
                ops.push_back({false, 0, it->second});
                live.erase(it);
            }
        }
        alloc::DeviceMemory memory(device.dram_bytes);
        sim::VirtualClock clock;
        sim::CostModel cost(device);
        const std::unique_ptr<alloc::Allocator> allocator =
            runtime::make_session_allocator(kind, memory, clock, cost);
        std::vector<BlockId> handles(slots, kInvalidBlock);
        {
            ScopedSpan span(tracer, "alloc.replay", parent);
            for (const Op &op : ops) {
                if (op.malloc)
                    handles[op.slot] = allocator->allocate(op.size).id;
                else
                    allocator->deallocate(handles[op.slot]);
            }
        }
    }
    return now_ns() - start;
}

/** Counters every finished Study contributes. */
void
count_study(const api::Study &study, Counters &c)
{
    const runtime::SessionResult &r = study.result();
    c["runtime.events"] += static_cast<double>(r.trace.size());
    c["runtime.sim_end_ns"] += static_cast<double>(r.end_time);
    c["runtime.allreduce_stall_ns"] +=
        static_cast<double>(study.allreduce_stall());
    c["alloc.allocs"] += static_cast<double>(r.alloc_stats.alloc_count);
    c["alloc.device_allocs"] +=
        static_cast<double>(r.alloc_stats.device_alloc_count);
    c["alloc.cache_hits"] +=
        static_cast<double>(r.alloc_stats.cache_hit_count);
    const auto stats = study.view().build_stats();
    c["analysis.events_walked"] +=
        static_cast<double>(stats.events_walked);
    c["analysis.timeline_builds"] +=
        static_cast<double>(stats.timeline_builds);
}

/**
 * Fills @p out's aggregate columns exactly as the sweep driver's
 * aggregation does, from facets that are already computed.
 */
void
project(const api::Study &study, const swap::SwapPlanReport &plan,
        const swap::SwapExecutionResult &exec,
        sweep::ScenarioResult &out)
{
    const runtime::SessionResult &r = study.result();
    out.peak_total_bytes = r.usage.peak_total;
    out.peak_input_bytes =
        r.usage.at_peak[static_cast<int>(Category::kInput)];
    out.peak_parameter_bytes =
        r.usage.at_peak[static_cast<int>(Category::kParameter)];
    out.peak_intermediate_bytes =
        r.usage.at_peak[static_cast<int>(Category::kIntermediate)];
    out.peak_reserved_bytes = r.peak_reserved_bytes;
    out.device_fragmentation = r.device_fragmentation;
    out.iteration_time = r.iteration_time;
    out.end_time = r.end_time;
    out.alloc_count = r.alloc_stats.alloc_count;
    out.cache_hit_count = r.alloc_stats.cache_hit_count;
    out.device_alloc_count = r.alloc_stats.device_alloc_count;
    out.scaling_efficiency = study.scaling_efficiency();
    out.interconnect_busy_fraction =
        study.interconnect_busy_fraction();
    out.allreduce_time_ns = study.allreduce_time();
    out.allreduce_stall_ns = study.allreduce_stall();
    out.requests = study.requests();
    out.latency_p50_ns = study.latency_p50();
    out.latency_p90_ns = study.latency_p90();
    out.latency_p99_ns = study.latency_p99();
    out.latency_max_ns = study.latency_max();
    out.event_count = r.trace.size();
    out.ati_count = study.atis().size();
    if (!study.atis().empty()) {
        const auto &stats = study.ati_summary();
        out.ati_median_us = stats.median;
        out.ati_p90_us = stats.p90;
        out.ati_max_us = stats.max;
    }
    out.swap_decisions = plan.decisions.size();
    out.swap_peak_reduction_bytes = plan.peak_reduction_bytes;
    out.swap_total_bytes = plan.total_swapped_bytes;
    out.swap_measured_peak_reduction_bytes =
        exec.measured_peak_reduction;
    out.swap_predicted_stall_ns = plan.predicted_overhead;
    out.swap_measured_stall_ns = exec.measured_stall;
    out.swap_link_busy_fraction = exec.link_busy_fraction;
    for (const auto &rep : study.relief_all()) {
        if (!rep.available)
            continue;
        const bool wins =
            out.relief_strategy.empty() ||
            rep.measured_peak_reduction >
                out.relief_peak_reduction_bytes ||
            (rep.measured_peak_reduction ==
                 out.relief_peak_reduction_bytes &&
             rep.measured_overhead < out.relief_overhead_ns);
        if (wins) {
            out.relief_strategy = relief::strategy_name(rep.strategy);
            out.relief_peak_reduction_bytes =
                rep.measured_peak_reduction;
            out.relief_overhead_ns = rep.measured_overhead;
        }
    }
}

/** The session driver Study::run would pick for @p spec. */
std::unique_ptr<api::Study>
run_session(const api::WorkloadSpec &spec, const nn::Model &model)
{
    if (spec.mode == runtime::SessionMode::kInfer)
        return std::make_unique<api::Study>(
            spec,
            runtime::run_inference(model, spec.inference_config()));
    if (spec.devices > 1)
        return std::make_unique<api::Study>(
            spec, runtime::run_data_parallel(
                      model, spec.data_parallel_config()));
    return std::make_unique<api::Study>(
        spec, runtime::run_training(model, spec.session_config()));
}

}  // namespace

LayeredScenario
run_scenario_layered(const sweep::Scenario &scenario, Tracer *tracer,
                     std::uint64_t parent, bool replay)
{
    LayeredScenario out;
    out.result.scenario = scenario;
    ScopedSpan root(tracer, "scenario", parent);
    const std::uint64_t id = root.id();
    try {
        const api::WorkloadSpec &spec = scenario.spec();
        spec.validate();
        std::optional<nn::Model> model;
        {
            ScopedSpan span(tracer, "nn.build", id);
            model.emplace(spec.build());
        }
        std::unique_ptr<api::Study> study;
        {
            ScopedSpan span(tracer, "runtime.run", id);
            study = run_session(spec, *model);
        }
        if (tracer && replay)
            out.replay_ns = replay_allocations(
                study->result(), spec.allocator, study->device(),
                tracer, id);
        {
            ScopedSpan span(tracer, "analysis.freeze", id);
            study->view();
        }
        {
            ScopedSpan span(tracer, "analysis.timeline", id);
            study->timeline();
        }
        {
            ScopedSpan span(tracer, "analysis.ati", id);
            if (!study->atis().empty())
                study->ati_summary();
        }
        const swap::SwapPlanReport *plan = nullptr;
        {
            ScopedSpan span(tracer, "swap.plan", id);
            plan = &study->swap_plan();
        }
        swap::SwapExecutionResult exec;
        {
            ScopedSpan span(tracer, "swap.execute", id);
            exec = swap::execute_plan(
                study->view(), *plan,
                runtime::fill_swap_link({}, study->device()).link);
        }
        {
            ScopedSpan span(tracer, "relief.plan_all", id);
            study->relief_all();
        }
        out.counters["swap.decisions"] +=
            static_cast<double>(plan->decisions.size());
        out.counters["swap.bytes_moved"] +=
            static_cast<double>(exec.d2h_bytes + exec.h2d_bytes);
        const auto &hybrid = study->relief(relief::Strategy::kHybrid);
        for (const auto &rep : study->relief_all()) {
            if (!rep.available)
                continue;
            out.counters["relief.decisions"] +=
                static_cast<double>(rep.decisions.size());
            if (rep.peak_reduction_bytes > hybrid.peak_reduction_bytes)
                out.hybrid_dominates = false;
            if (rep.measured_peak_reduction >
                hybrid.measured_peak_reduction)
                out.hybrid_measured_shortfall = true;
        }
        if (out.hybrid_measured_shortfall)
            out.counters["relief.hybrid_measured_shortfalls"] += 1;
        project(*study, *plan, exec, out.result);
        count_study(*study, out.counters);
        {
            ScopedSpan span(tracer, "api.teardown", id);
            study.reset();
            model.reset();
        }
    } catch (const alloc::DeviceOomError &e) {
        out.result.status = sweep::ScenarioStatus::kOom;
        out.result.error = e.what();
    } catch (const std::exception &e) {
        out.result.status = sweep::ScenarioStatus::kError;
        out.result.error = e.what();
    }
    return out;
}

StreamOutcome
run_stream(const api::WorkloadSpec &spec, const nn::Model &model,
           const runtime::InferenceConfig &config, Tracer *tracer,
           std::uint64_t parent)
{
    StreamOutcome out;
    out.requests = config.requests;
    ScopedSpan root(tracer, "stream", parent);
    const std::uint64_t id = root.id();
    try {
        std::unique_ptr<api::Study> study;
        {
            ScopedSpan span(tracer, "runtime.run", id);
            study = std::make_unique<api::Study>(
                spec, runtime::run_inference(model, config));
        }
        if (tracer)
            out.replay_ns = replay_allocations(
                study->result(), config.session.allocator,
                study->device(), tracer, id);
        {
            ScopedSpan span(tracer, "analysis.freeze", id);
            study->view();
        }
        {
            ScopedSpan span(tracer, "analysis.timeline", id);
            study->timeline();
        }
        {
            ScopedSpan span(tracer, "analysis.ati", id);
            if (!study->atis().empty())
                study->ati_summary();
        }
        {
            ScopedSpan span(tracer, "analysis.breakdown", id);
            study->breakdown();
        }
        {
            ScopedSpan span(tracer, "analysis.report", id);
            // The characterize command's report options.
            analysis::ReportOptions opts;
            opts.title = spec.model + " batch " +
                         std::to_string(spec.batch) + " x" +
                         std::to_string(study->requests()) +
                         " requests on " + study->device().name;
            opts.link = analysis::LinkBandwidth{
                study->device().d2h_bw_bps, study->device().h2d_bw_bps};
            std::ostringstream report;
            analysis::write_report(study->view(), report, opts);
            out.report_bytes = report.str().size();
        }

        const runtime::InferenceResult &inf = study->inference_result();
        for (const runtime::RequestRecord &rq : inf.requests)
            if (rq.completion > rq.start && rq.start >= rq.arrival)
                ++out.completed;
        if (static_cast<int>(inf.requests.size()) != config.requests)
            out.completed = 0;
        out.percentiles_ordered = inf.latency_p50 > 0 &&
                                  inf.latency_p50 <= inf.latency_p90 &&
                                  inf.latency_p90 <= inf.latency_p99 &&
                                  inf.latency_p99 <= inf.latency_max;
        out.timeline_builds = study->view().build_stats().timeline_builds;
        count_study(*study, out.counters);
        {
            ScopedSpan span(tracer, "api.teardown", id);
            study.reset();
        }
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

}  // namespace perfbench
