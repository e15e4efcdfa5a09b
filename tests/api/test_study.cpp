/**
 * @file
 * api::Study: the run artifact. Facets must equal the underlying
 * analyses computed directly (caching changes cost, never results),
 * be computed exactly once per Study, and be safe to hammer from
 * many threads — the property the sweep worker pool relies on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/report.h"
#include "analysis/swap_model.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "api/study.h"
#include "core/check.h"
#include "nn/models.h"
#include "relief/strategy_planner.h"
#include "runtime/session.h"
#include "swap/executor.h"
#include "swap/planner.h"
#include "trace/csv.h"

namespace pinpoint {
namespace api {
namespace {

WorkloadSpec
small_spec()
{
    WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 32;
    spec.iterations = 2;
    return spec;
}

TEST(Study, FacetsEqualDirectComputation)
{
    const Study study = Study::run(small_spec());

    // A fresh view reproduces what the pre-refactor direct
    // computation did: sharing one TraceView changes cost, never
    // results.
    const analysis::TraceView fresh(study.trace());
    const analysis::Timeline &direct_timeline = fresh.timeline();
    EXPECT_EQ(study.timeline().blocks().size(),
              direct_timeline.blocks().size());
    EXPECT_EQ(study.timeline().end(), direct_timeline.end());

    const auto direct_atis = analysis::compute_atis(fresh);
    ASSERT_EQ(study.atis().size(), direct_atis.size());
    for (std::size_t i = 0; i < direct_atis.size(); ++i) {
        EXPECT_EQ(study.atis()[i].block, direct_atis[i].block);
        EXPECT_EQ(study.atis()[i].interval, direct_atis[i].interval);
    }
    const auto direct_summary = analysis::summarize(
        analysis::ati_microseconds(direct_atis));
    EXPECT_EQ(study.ati_summary().count, direct_summary.count);
    EXPECT_EQ(study.ati_summary().median, direct_summary.median);

    const auto direct_breakdown =
        analysis::occupation_breakdown(fresh);
    EXPECT_EQ(study.breakdown().peak_total,
              direct_breakdown.peak_total);
    EXPECT_EQ(study.breakdown().at_peak, direct_breakdown.at_peak);
}

TEST(Study, OccupancyFacetAgreesWithBreakdownPeak)
{
    const Study study = Study::run(small_spec());
    // Two independent peak computations — the occupancy-edge walk
    // and the breakdown replay — must land on the same bytes.
    EXPECT_EQ(study.peak_occupancy_bytes(),
              study.breakdown().peak_total);
    EXPECT_EQ(study.peak_occupancy_bytes(),
              study.timeline().live_bytes_at(
                  study.timeline().peak_time()));
}

TEST(Study, SwapPlanFacetEqualsTheValidationPlan)
{
    // Two studies so neither facet can serve the other from its
    // cache: the plan-only facet (no link scheduling) must produce
    // the exact plan the full validation facet produces.
    const Study planned = Study::run(small_spec());
    const Study validated = Study::run(small_spec());
    const auto &plan = planned.swap_plan();
    const auto &vplan = validated.swap_validation().plan;
    EXPECT_EQ(plan.decisions.size(), vplan.decisions.size());
    EXPECT_EQ(plan.original_peak_bytes, vplan.original_peak_bytes);
    EXPECT_EQ(plan.peak_reduction_bytes, vplan.peak_reduction_bytes);
    EXPECT_EQ(plan.predicted_overhead, vplan.predicted_overhead);
    EXPECT_EQ(&planned.swap_plan(), &plan);
}

TEST(Study, SwapAndReliefFacetsEqualDirectPlanning)
{
    const Study study = Study::run(small_spec());
    // Plan and execute on a fresh view, over the device's link: the
    // facets must not depend on the Study's caches.
    const analysis::TraceView fresh(study.trace());
    const analysis::LinkBandwidth link{study.device().d2h_bw_bps,
                                       study.device().h2d_bw_bps};
    swap::PlannerOptions swap_opts;
    swap_opts.link = link;
    const auto direct_plan = swap::SwapPlanner(swap_opts).plan(fresh);
    const auto direct_exec = swap::execute_plan(fresh, direct_plan, link);
    EXPECT_EQ(study.swap_validation().plan.decisions.size(),
              direct_plan.decisions.size());
    EXPECT_EQ(study.swap_validation().plan.peak_reduction_bytes,
              direct_plan.peak_reduction_bytes);
    EXPECT_EQ(study.swap_validation().execution.measured_stall,
              direct_exec.measured_stall);
    EXPECT_EQ(study.swap_validation().execution.new_peak_bytes,
              direct_exec.new_peak_bytes);

    relief::StrategyOptions relief_opts;
    relief_opts.link = link;
    const auto direct_relief =
        relief::StrategyPlanner(relief_opts).plan_all(fresh);
    for (int i = 0; i < relief::kNumStrategies; ++i) {
        EXPECT_EQ(study.relief_all()[i].peak_reduction_bytes,
                  direct_relief[i].peak_reduction_bytes);
        EXPECT_EQ(study.relief_all()[i].measured_overhead,
                  direct_relief[i].measured_overhead);
        EXPECT_EQ(&study.relief(static_cast<relief::Strategy>(i)),
                  &study.relief_all()[i]);
    }
}

TEST(Study, SwapValidationClosesTheLoop)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 3;
    WorkloadSpec spec;
    spec.model = "resnet18";
    const Study study(spec,
                      runtime::run_training(nn::resnet(18), config),
                      config.device);

    const auto &v = study.swap_validation();
    EXPECT_EQ(v.execution.executed_decisions,
              v.plan.decisions.size());
    EXPECT_EQ(v.plan.original_peak_bytes,
              v.execution.original_peak_bytes);
    // Default options take the link from the device spec, so the
    // validation matches an explicit plan over the same link.
    swap::PlannerOptions opts;
    opts.link = analysis::LinkBandwidth{config.device.d2h_bw_bps,
                                        config.device.h2d_bw_bps};
    const auto direct = swap::SwapPlanner(opts).plan(study.view());
    EXPECT_EQ(v.plan.decisions.size(), direct.decisions.size());
    EXPECT_EQ(v.plan.peak_reduction_bytes,
              direct.peak_reduction_bytes);
    EXPECT_EQ(v.unpredicted_stall(),
              v.execution.measured_stall -
                  std::min(v.execution.measured_stall,
                           v.plan.predicted_overhead));
    // The validation executes the plan facet's plan: one swap plan
    // per Study.
    EXPECT_EQ(v.plan.decisions.size(),
              study.swap_plan().decisions.size());
    EXPECT_EQ(v.plan.predicted_overhead,
              study.swap_plan().predicted_overhead);
}

TEST(Study, SwapValidationAndReliefNeedATrace)
{
    runtime::SessionConfig config;
    config.batch = 16;
    config.iterations = 2;
    config.record_trace = false;
    const Study study(small_spec(),
                      runtime::run_training(nn::mlp(), config),
                      config.device);
    EXPECT_THROW(study.swap_validation(), Error);
    EXPECT_THROW(study.relief_all(), Error);
}

TEST(Study, FacetsAreComputedOnceAndCached)
{
    const Study study = Study::run(small_spec());
    // Same object on every access — the facet is a cache, not a
    // recomputation.
    EXPECT_EQ(&study.timeline(), &study.timeline());
    EXPECT_EQ(&study.atis(), &study.atis());
    EXPECT_EQ(&study.breakdown(), &study.breakdown());
    EXPECT_EQ(&study.swap_validation(), &study.swap_validation());
    EXPECT_EQ(&study.relief_all(), &study.relief_all());
    EXPECT_EQ(&study.iteration_pattern(),
              &study.iteration_pattern());
}

TEST(Study, AtisAndTheReportShareOneAtiBuild)
{
    const Study study = Study::run(small_spec());
    EXPECT_EQ(study.view().build_stats().ati_builds, 0u);
    EXPECT_EQ(&study.atis(), &study.view().atis());
    EXPECT_EQ(&study.ati_summary(), &study.view().ati_summary());
    std::ostringstream report;
    analysis::write_report(study.view(), report);
    EXPECT_NE(report.str().find("access time intervals"),
              std::string::npos);
    EXPECT_EQ(study.view().build_stats().ati_builds, 1u);
}

TEST(Study, BreakdownAndTheReportShareOneBuild)
{
    const Study study = Study::run(small_spec());
    EXPECT_EQ(study.view().build_stats().breakdown_builds, 0u);
    EXPECT_EQ(&study.breakdown(), &study.view().breakdown());
    std::ostringstream report;
    analysis::write_report(study.view(), report);
    EXPECT_NE(report.str().find("occupation breakdown"),
              std::string::npos);
    const auto stats = study.view().build_stats();
    EXPECT_EQ(stats.breakdown_builds, 1u);
    EXPECT_GE(stats.index_builds(), stats.breakdown_builds);
}

TEST(Study, FacetsAreThreadSafe)
{
    const Study study = Study::run(small_spec());
    const std::size_t expected_atis =
        analysis::compute_atis(analysis::TraceView(study.trace()))
            .size();

    std::vector<const void *> seen(16, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&study, &seen, t] {
            // Touch every facet concurrently; record one address.
            study.timeline();
            study.breakdown();
            study.swap_validation();
            study.relief_all();
            seen[t] = &study.atis();
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (const void *address : seen)
        EXPECT_EQ(address, &study.atis());
    EXPECT_EQ(study.atis().size(), expected_atis);
}

TEST(Study, MoveCarriesTheCache)
{
    Study study = Study::run(small_spec());
    const analysis::BreakdownResult *breakdown = &study.breakdown();
    Study moved = std::move(study);
    EXPECT_EQ(&moved.breakdown(), breakdown);
}

TEST(Study, DeviceOverloadHonorsCustomSpecs)
{
    WorkloadSpec spec = small_spec();
    sim::DeviceSpec custom = sim::DeviceSpec::titan_x_pascal();
    custom.name = "titan-x-half-link";
    custom.d2h_bw_bps /= 2;
    custom.h2d_bw_bps /= 2;
    auto session =
        runtime::run_training(spec.build(), spec.session_config());
    // spec.device may be any descriptive string with the device
    // overload — it is display-only and never preset-resolved.
    spec.device = "my custom half-link card";
    const Study study(spec, std::move(session), custom);
    // The facets must price the custom link, not a preset.
    EXPECT_EQ(study.device().name, "titan-x-half-link");
    EXPECT_EQ(study.device().d2h_bw_bps,
              sim::DeviceSpec::titan_x_pascal().d2h_bw_bps / 2);
    // Link-priced facets work — they never resolve spec.device.
    EXPECT_GT(study.swap_validation().plan.original_peak_bytes, 0u);
}

TEST(Study, FromTraceSupportsOfflineAnalysis)
{
    const Study recorded = Study::run(small_spec());
    trace::TraceRecorder copy = recorded.trace();
    const Study offline = Study::from_trace(
        std::move(copy), sim::DeviceSpec::titan_x_pascal());
    EXPECT_EQ(offline.atis().size(), recorded.atis().size());
    EXPECT_EQ(offline.breakdown().peak_total,
              recorded.breakdown().peak_total);
    EXPECT_EQ(offline.device().name,
              sim::DeviceSpec::titan_x_pascal().name);
    // The synthetic spec is marked: offline traces never
    // masquerade as a named workload.
    EXPECT_EQ(offline.spec().model, "");
}

TEST(Study, StudyOptionsReachTheFacets)
{
    StudyOptions opts;
    opts.swap.min_block_bytes = 1;
    opts.swap.allow_overhead = true;
    const Study aggressive = Study::run(small_spec(), opts);
    const Study conservative = Study::run(small_spec());
    // A 1-byte threshold with overhead allowed can only widen the
    // plan relative to the defaults.
    EXPECT_GE(aggressive.swap_validation().plan.decisions.size(),
              conservative.swap_validation().plan.decisions.size());
}

TEST(Study, RunValidatesTheSpec)
{
    WorkloadSpec bad;
    bad.model = "lenet";
    EXPECT_THROW(Study::run(bad), UsageError);
}

TEST(Study, SingleDeviceStudiesHaveNoDataParallelSurface)
{
    const Study study = Study::run(small_spec());
    EXPECT_FALSE(study.data_parallel());
    EXPECT_EQ(study.devices(), 1);
    EXPECT_DOUBLE_EQ(study.scaling_efficiency(), 1.0);
    EXPECT_DOUBLE_EQ(study.interconnect_busy_fraction(), 0.0);
    EXPECT_EQ(study.allreduce_time(), 0);
    EXPECT_EQ(study.allreduce_stall(), 0);
    EXPECT_THROW(study.data_parallel_result(), Error);
}

TEST(Study, DataParallelStudyProjectsThePrimaryReplica)
{
    WorkloadSpec spec = small_spec();
    spec.devices = 2;
    spec.topology = "nvlink";
    const Study study = Study::run(spec);

    ASSERT_TRUE(study.data_parallel());
    EXPECT_EQ(study.devices(), 2);
    const runtime::DataParallelResult &dp =
        study.data_parallel_result();
    ASSERT_EQ(dp.replicas.size(), 2u);
    // result() is the primary replica: every single-device facet
    // (timeline, ATI, swap, relief) analyzes replica 0 unchanged.
    EXPECT_EQ(&study.result(), &dp.primary());
    EXPECT_EQ(study.trace().size(), dp.primary().trace.size());

    EXPECT_GT(study.allreduce_time(), 0);
    EXPECT_GT(study.scaling_efficiency(), 0.0);
    EXPECT_LT(study.scaling_efficiency(), 1.0);
    EXPECT_DOUBLE_EQ(study.scaling_efficiency(),
                     dp.scaling_efficiency);
    EXPECT_GT(study.interconnect_busy_fraction(), 0.0);

    // The relief facet is armed with the topology: the peer-only
    // report is available on a two-device study.
    EXPECT_TRUE(study.relief(relief::Strategy::kPeerOnly).available);
    const Study single = Study::run(small_spec());
    EXPECT_FALSE(
        single.relief(relief::Strategy::kPeerOnly).available);
}

TEST(Study, DataParallelSpecsRoundTripThroughTheRunner)
{
    // The spec is the single source of the topology: id() carries
    // the axis and the study's DP result matches a direct
    // run_data_parallel with the same config.
    WorkloadSpec spec = small_spec();
    spec.devices = 2;
    spec.topology = "pcie";
    EXPECT_EQ(spec.id(), "mlp/b32/caching/titan-x/dp2/pcie");
    const Study study = Study::run(spec);
    const auto direct = runtime::run_data_parallel(
        spec.build(), spec.data_parallel_config());
    EXPECT_EQ(study.data_parallel_result().allreduce_time,
              direct.allreduce_time);
    EXPECT_EQ(study.data_parallel_result().gradient_bytes,
              direct.gradient_bytes);
    EXPECT_EQ(study.result().end_time, direct.primary().end_time);
}

/**
 * Damages @p csv (a write_csv trace) the way a bad disk or a careless
 * edit would, picked by @p rng: truncate it, flip bytes, drop a line,
 * or swap two lines. The header line is left alone by the line-level
 * damage so most damaged traces still parse.
 */
std::string
damage(const std::string &csv, std::mt19937 &rng, int kind)
{
    auto pick = [&rng](std::size_t lo, std::size_t hi) {
        return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
    };
    std::vector<std::string> lines;
    std::istringstream in(csv);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::string out;
    switch (kind) {
      case 0:  // truncate
        return csv.substr(0, pick(0, csv.size() - 1));
      case 1:  // flip a bit in one to three bytes
        out = csv;
        for (std::size_t flips = pick(1, 3); flips > 0; --flips) {
            const std::size_t at = pick(0, out.size() - 1);
            out[at] = static_cast<char>(out[at] ^ (1 << pick(0, 6)));
        }
        return out;
      case 2:  // drop a line
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(pick(1, lines.size() - 1)));
        break;
      default:  // swap two lines
        std::swap(lines[pick(1, lines.size() - 1)],
                  lines[pick(1, lines.size() - 1)]);
        break;
    }
    for (const auto &line : lines)
        out += line + "\n";
    return out;
}

TEST(Study, DamagedOfflineTracesAreRejectedOrAnalysedCleanly)
{
    // A real run's trace, written the way the offline path reads it.
    const Study recorded = Study::run(small_spec());
    std::ostringstream written;
    trace::write_csv(recorded.trace(), written);
    const std::string csv = written.str();

    // Plan every block, so the swap and relief paths see real
    // decisions on the damaged trace.
    StudyOptions opts;
    opts.swap.min_block_bytes = 1;
    opts.swap.allow_overhead = true;
    opts.relief.min_block_bytes = 1;

    int rejected = 0;
    int analysed = 0;
    std::size_t decisions = 0;
    for (std::uint32_t seed = 1; seed <= 64; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937 rng(seed);
        const std::string bad =
            damage(csv, rng, static_cast<int>(seed % 4));
        // Either the reader or a facet rejects the trace with Error,
        // or every facet completes; anything else (another exception
        // type, a sanitizer report) fails the test.
        try {
            std::istringstream in(bad);
            const Study offline = Study::from_trace(
                trace::read_csv(in), sim::DeviceSpec::titan_x_pascal(),
                opts);
            offline.timeline();
            offline.atis();
            offline.breakdown();
            decisions +=
                offline.swap_validation().plan.decisions.size();
            offline.relief_all();
            std::ostringstream report;
            analysis::write_report(offline.view(), report);
            ++analysed;
        } catch (const Error &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(analysed, 0);
    // The analysed traces reached the planners with work to do.
    EXPECT_GT(decisions, 0u);
}

}  // namespace
}  // namespace api
}  // namespace pinpoint
