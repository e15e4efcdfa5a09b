/** @file Unit tests for the swap executor. */
#include <gtest/gtest.h>

#include "core/check.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "swap/executor.h"

namespace pinpoint {
namespace swap {
namespace {

const analysis::LinkBandwidth kLink{6.4e9, 6.3e9};

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, std::size_t size)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = size;
    return e;
}

/** Big block with a 1 s gap, plus a transient block mid-gap. */
trace::TraceRecorder
gap_trace(std::size_t big = 512ull << 20)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(400 * kNsPerMs, trace::EventKind::kMalloc, 2,
                64ull << 20));
    r.record(ev(500 * kNsPerMs, trace::EventKind::kFree, 2,
                64ull << 20));
    r.record(ev(kNsPerSec, trace::EventKind::kRead, 1, big));
    r.record(ev(kNsPerSec + 10, trace::EventKind::kFree, 1, big));
    return r;
}

TEST(SwapExecutor, HideableSwapReducesPeakWithNoStall)
{
    const analysis::TraceView trace(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(trace);
    ASSERT_EQ(plan.decisions.size(), 1u);

    const auto exec = execute_plan(trace, plan, kLink);
    EXPECT_EQ(exec.executed_decisions, 1u);
    EXPECT_EQ(exec.measured_stall, 0u);
    EXPECT_EQ(exec.original_peak_bytes, (512ull + 64ull) << 20);
    // At the old peak instant the big block is off-device.
    EXPECT_EQ(exec.new_peak_bytes, 512ull << 20)
        << "peak moves to the big block's resident phase";
    EXPECT_EQ(exec.measured_peak_reduction, 64ull << 20);
    EXPECT_EQ(exec.d2h_bytes, 512ull << 20);
    EXPECT_EQ(exec.h2d_bytes, 512ull << 20);
    EXPECT_GT(exec.transfer_time, 100 * kNsPerMs);
}

TEST(SwapExecutor, ExecutorConfirmsPlannerPeakPrediction)
{
    const analysis::TraceView trace(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(trace);
    const auto exec = execute_plan(trace, plan, kLink);
    // The planner predicted reduction at the original peak instant;
    // the executor's measured reduction must be at least that once
    // transfer edges are accounted for.
    EXPECT_EQ(plan.original_peak_bytes, exec.original_peak_bytes);
    EXPECT_GE(exec.measured_peak_reduction, 0u);
    EXPECT_LE(exec.new_peak_bytes, exec.original_peak_bytes);
}

TEST(SwapExecutor, NonHideableSwapMeasuresStall)
{
    // 512 MB with only a 100 ms gap: round trip needs ~170 ms.
    trace::TraceRecorder r;
    const std::size_t big = 512ull << 20;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(100 * kNsPerMs, trace::EventKind::kRead, 1, big));

    PlannerOptions opts;
    opts.link = kLink;
    opts.allow_overhead = true;
    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 1u);
    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_GT(exec.measured_stall, 0u);
    // Executor and planner agree on the stall to the nanosecond.
    EXPECT_EQ(exec.measured_stall, plan.predicted_overhead);
}

TEST(SwapExecutor, ExactlyHideableGapHasNoSpuriousStall)
{
    // An odd size forces fractional per-leg transfer times. The gap
    // equals min_interval_for exactly; with the planner and the
    // executor on one per-leg rounding helper this is stall-free —
    // the seed ceiled the summed round trip in the planner but each
    // leg separately in the executor, reporting a spurious 1 ns
    // stall on gaps like this one.
    trace::TraceRecorder r;
    const std::size_t size = 333333333;
    const TimeNs needed = analysis::min_interval_for(size, kLink);
    r.record(ev(0, trace::EventKind::kMalloc, 1, size));
    r.record(ev(10, trace::EventKind::kWrite, 1, size));
    r.record(ev(10 + needed, trace::EventKind::kRead, 1, size));

    PlannerOptions opts;
    opts.link = kLink;
    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 1u);
    EXPECT_EQ(plan.decisions[0].overhead, 0u);
    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_EQ(exec.measured_stall, 0u)
        << "planner and executor disagree on rounding";
}

TEST(SwapExecutor, ContendedSwapsStallOnTheSharedLink)
{
    // Two 512 MB blocks share one 200 ms gap. Each round trip needs
    // ~161 ms — hideable in isolation — but the two D2H copies
    // serialize on the shared link (~80 ms each) and so do the two
    // H2D copies (~81 ms each), so the second swap-in cannot finish
    // by the gap end. The seed's dedicated-link executor reported
    // zero stall here.
    trace::TraceRecorder r;
    const std::size_t big = 512ull << 20;
    const TimeNs gap_end = 200 * kNsPerMs;
    r.record(ev(0, trace::EventKind::kMalloc, 1, big));
    r.record(ev(0, trace::EventKind::kMalloc, 2, big));
    r.record(ev(10, trace::EventKind::kWrite, 1, big));
    r.record(ev(10, trace::EventKind::kWrite, 2, big));
    r.record(ev(gap_end, trace::EventKind::kRead, 1, big));
    r.record(ev(gap_end, trace::EventKind::kRead, 2, big));
    r.record(ev(gap_end + 10, trace::EventKind::kFree, 1, big));
    r.record(ev(gap_end + 10, trace::EventKind::kFree, 2, big));

    PlannerOptions opts;
    opts.link = kLink;
    const analysis::TraceView view(r);
    const auto plan = SwapPlanner(opts).plan(view);
    ASSERT_EQ(plan.decisions.size(), 2u);
    EXPECT_EQ(plan.predicted_overhead, 0u)
        << "each swap is hideable in isolation";

    // Alone, either decision is stall-free.
    for (const auto &d : plan.decisions) {
        SwapPlanReport solo;
        solo.decisions.push_back(d);
        EXPECT_EQ(execute_plan(view, solo, kLink).measured_stall, 0u);
    }

    // Together they contend, and the slip is measured.
    const auto exec = execute_plan(view, plan, kLink);
    EXPECT_GT(exec.measured_stall, 0u)
        << "the shared link must surface contention stall";
    EXPECT_GT(exec.queue_delay, 0u);
    ASSERT_EQ(exec.swaps.size(), 2u);
    // FIFO: the first-queued swap hides; the second pays the slip.
    EXPECT_EQ(exec.swaps[0].stall, 0u);
    EXPECT_GT(exec.swaps[1].stall, 0u);
    // The second swap-out starts only when the first leaves the
    // D2H channel — scheduled, not ideal, edges.
    EXPECT_EQ(exec.swaps[1].out_start, exec.swaps[0].out_end);
    EXPECT_EQ(exec.swaps[1].in_start, exec.swaps[0].in_end);
}

TEST(SwapExecutor, SharedSchedulerAccumulatesAcrossPlans)
{
    const analysis::TraceView trace(gap_trace());
    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(trace);
    ASSERT_EQ(plan.decisions.size(), 1u);

    sim::LinkScheduler link(kLink.d2h_bps, kLink.h2d_bps);
    const auto first = execute_plan(trace, plan, link);
    EXPECT_EQ(first.measured_stall, 0u);
    // A second plan over the same window now queues behind the
    // first plan's traffic on the very same link.
    const auto second = execute_plan(trace, plan, link);
    EXPECT_GT(second.measured_stall, first.measured_stall);
    EXPECT_EQ(link.transfer_count(), 4u);
}

/** Pins every field of an empty plan's result: nothing moved. */
void
expect_untouched(const SwapExecutionResult &exec)
{
    EXPECT_EQ(exec.original_peak_bytes, (512ull + 64ull) << 20);
    EXPECT_EQ(exec.new_peak_bytes, exec.original_peak_bytes);
    EXPECT_EQ(exec.measured_peak_reduction, 0u);
    EXPECT_EQ(exec.d2h_bytes, 0u);
    EXPECT_EQ(exec.h2d_bytes, 0u);
    EXPECT_EQ(exec.transfer_time, 0u);
    EXPECT_EQ(exec.d2h_busy_time, 0u);
    EXPECT_EQ(exec.h2d_busy_time, 0u);
    EXPECT_EQ(exec.link_busy_fraction, 0.0);
    EXPECT_EQ(exec.measured_stall, 0u);
    EXPECT_EQ(exec.queue_delay, 0u);
    EXPECT_EQ(exec.executed_decisions, 0u);
    EXPECT_TRUE(exec.swaps.empty());
}

TEST(SwapExecutor, EmptyPlanChangesNothing)
{
    const analysis::TraceView trace(gap_trace());
    const SwapPlanReport empty;
    expect_untouched(execute_plan(trace, empty, kLink));
    sim::LinkScheduler fresh(kLink.d2h_bps, kLink.h2d_bps);
    expect_untouched(execute_plan(trace, empty, fresh));
    EXPECT_EQ(fresh.transfer_count(), 0u);

    // A link already carrying another plan's traffic: the empty
    // plan reports none of it and adds none.
    PlannerOptions opts;
    opts.link = kLink;
    sim::LinkScheduler loaded(kLink.d2h_bps, kLink.h2d_bps);
    execute_plan(trace, SwapPlanner(opts).plan(trace), loaded);
    const std::size_t transfers = loaded.transfer_count();
    const TimeNs d2h = loaded.busy_time(sim::CopyDir::kDeviceToHost);
    const TimeNs h2d = loaded.busy_time(sim::CopyDir::kHostToDevice);
    ASSERT_GT(transfers, 0u);
    expect_untouched(execute_plan(trace, empty, loaded));
    EXPECT_EQ(loaded.transfer_count(), transfers);
    EXPECT_EQ(loaded.busy_time(sim::CopyDir::kDeviceToHost), d2h);
    EXPECT_EQ(loaded.busy_time(sim::CopyDir::kHostToDevice), h2d);
}

TEST(SwapExecutor, RejectsForeignDecisions)
{
    const analysis::TraceView trace(gap_trace());
    SwapPlanReport bogus;
    SwapDecision d;
    d.block = 999;
    d.size = 1024;
    d.gap_start = 10;
    d.gap_end = 20;
    bogus.decisions.push_back(d);
    EXPECT_THROW(execute_plan(trace, bogus, kLink), Error);

    SwapPlanReport misaligned;
    d.block = 1;
    d.size = 512ull << 20;
    d.gap_start = 11;  // not an access timestamp
    d.gap_end = kNsPerSec;
    misaligned.decisions.push_back(d);
    EXPECT_THROW(execute_plan(trace, misaligned, kLink), Error);
}

TEST(SwapExecutor, EndToEndOnRealTrainingTrace)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 3;
    const auto result = runtime::run_training(nn::resnet(18), config);

    PlannerOptions opts;
    opts.link = kLink;
    const auto plan = SwapPlanner(opts).plan(result.view());
    const auto exec = execute_plan(result.view(), plan, kLink);
    EXPECT_EQ(exec.executed_decisions, plan.decisions.size());
    // A hideable-only plan can still stall on a real trace: the
    // decisions overlap and contend for the one link. What must
    // hold is that every stall is link slip, never more than the
    // time spent queued.
    EXPECT_GE(exec.measured_stall, plan.predicted_overhead);
    EXPECT_LE(exec.measured_stall, exec.queue_delay);
    EXPECT_LE(exec.new_peak_bytes, exec.original_peak_bytes);
    EXPECT_GE(exec.link_busy_fraction, 0.0);
    EXPECT_LE(exec.link_busy_fraction, 1.0);
    if (!plan.decisions.empty()) {
        EXPECT_GT(exec.measured_peak_reduction, 0u);
    }
}

}  // namespace
}  // namespace swap
}  // namespace pinpoint
