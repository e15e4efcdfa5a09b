/** @file Unit tests for Timeline and Gantt rendering. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/gantt.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "core/check.h"
#include "core/hash.h"

namespace pinpoint {
namespace analysis {
namespace {

trace::MemoryEvent
ev(TimeNs t, trace::EventKind kind, BlockId block, DevPtr ptr,
   std::size_t size)
{
    trace::MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.ptr = ptr;
    e.size = size;
    return e;
}

trace::TraceRecorder
two_block_trace()
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 512));
    r.record(ev(10, trace::EventKind::kWrite, 1, 0x1000, 512));
    r.record(ev(20, trace::EventKind::kMalloc, 2, 0x2000, 1024));
    r.record(ev(30, trace::EventKind::kRead, 1, 0x1000, 512));
    r.record(ev(40, trace::EventKind::kFree, 1, 0x1000, 512));
    r.record(ev(90, trace::EventKind::kWrite, 2, 0x2000, 1024));
    return r;
}

/** Two 1 KB blocks allocated together; block 1 dies first. */
trace::TraceRecorder
two_block_trace_touching()
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 1024));
    r.record(ev(0, trace::EventKind::kMalloc, 2, 0x2000, 1024));
    r.record(ev(40, trace::EventKind::kFree, 1, 0x1000, 1024));
    r.record(ev(90, trace::EventKind::kFree, 2, 0x2000, 1024));
    return r;
}

TEST(Timeline, ReconstructsLifetimes)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    ASSERT_EQ(t.blocks().size(), 2u);
    const auto &b1 = t.blocks()[0];
    EXPECT_EQ(b1.block, 1u);
    EXPECT_EQ(b1.alloc_time, 0u);
    EXPECT_TRUE(b1.freed);
    EXPECT_EQ(b1.free_time, 40u);
    EXPECT_EQ(b1.accesses.size(), 2u);
    const auto &b2 = t.blocks()[1];
    EXPECT_FALSE(b2.freed);
    EXPECT_EQ(b2.lifetime(t.end()), 90u - 20u);
    EXPECT_EQ(t.start(), 0u);
    EXPECT_EQ(t.end(), 90u);
}

TEST(Timeline, LiveAtRespectsHalfOpenLifetime)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    EXPECT_EQ(t.live_at(0).size(), 1u);
    EXPECT_EQ(t.live_at(25).size(), 2u);
    EXPECT_EQ(t.live_at(40).size(), 1u)
        << "a block is dead at its free instant";
    EXPECT_EQ(t.live_bytes_at(25), 512u + 1024u);
    EXPECT_EQ(t.live_bytes_at(50), 1024u);
}

TEST(Timeline, PeakTimeFindsMaxOccupancy)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    const TimeNs peak = t.peak_time();
    EXPECT_EQ(peak, 20u);
    EXPECT_EQ(t.live_bytes_at(peak), 1536u);
}

TEST(Timeline, GapStatsMeasureHoles)
{
    trace::TraceRecorder r;
    r.record(ev(0, trace::EventKind::kMalloc, 1, 0x1000, 0x100));
    r.record(ev(0, trace::EventKind::kMalloc, 2, 0x1200, 0x100));
    TraceView view(r);
    const Timeline &t = view.timeline();
    const auto g = t.gaps_at(0);
    EXPECT_EQ(g.live_blocks, 2u);
    EXPECT_EQ(g.live_bytes, 0x200u);
    EXPECT_EQ(g.span_bytes, 0x300u);
    EXPECT_EQ(g.gap_bytes, 0x100u);
    EXPECT_NEAR(g.gap_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(Timeline, GapStatsEmptyWhenNothingLive)
{
    TraceView view{trace::TraceRecorder()};
    const Timeline &t = view.timeline();
    const auto g = t.gaps_at(5);
    EXPECT_EQ(g.live_blocks, 0u);
    EXPECT_DOUBLE_EQ(g.gap_fraction(), 0.0);
}

TEST(Timeline, RejectsInconsistentTraces)
{
    trace::TraceRecorder double_malloc;
    double_malloc.record(ev(0, trace::EventKind::kMalloc, 1, 0, 512));
    double_malloc.record(ev(1, trace::EventKind::kMalloc, 1, 0, 512));
    EXPECT_THROW(TraceView(double_malloc).timeline(), Error);

    trace::TraceRecorder stray_free;
    stray_free.record(ev(0, trace::EventKind::kFree, 9, 0, 512));
    EXPECT_THROW(TraceView(stray_free).timeline(), Error);

    trace::TraceRecorder stray_access;
    stray_access.record(ev(0, trace::EventKind::kRead, 9, 0, 512));
    EXPECT_THROW(TraceView(stray_access).timeline(), Error);
}

using Edges = std::vector<OccupancyEdge>;

/** Seeded draws in [0, bound) from the splitmix64 counter mixer. */
struct Draws {
    std::uint64_t counter = 0;

    std::uint64_t operator()(std::uint64_t bound)
    {
        return splitmix64(counter++) % bound;
    }
};

/** Reference what-if peak: concatenate, sort by (t, delta), scan. */
std::size_t
brute_peak(const Timeline &t, Edges edges)
{
    for (const auto &b : t.blocks()) {
        const auto size = static_cast<std::int64_t>(b.size);
        edges.push_back({b.alloc_time, size});
        if (b.freed)
            edges.push_back({b.free_time, -size});
    }
    std::sort(edges.begin(), edges.end(),
              [](const OccupancyEdge &a, const OccupancyEdge &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  return a.delta < b.delta;
              });
    std::int64_t cur = 0;
    std::int64_t best = 0;
    for (const auto &e : edges) {
        cur += e.delta;
        best = std::max(best, cur);
    }
    return static_cast<std::size_t>(best);
}

/** One generated block: [alloc, free), or open-ended. */
struct RandomBlock {
    TimeNs alloc = 0;
    TimeNs free = 0;
    bool freed = false;
    std::size_t size = 0;
};

/** Every generated time lies on the 10 ns grid in [0, kHorizon]. */
constexpr TimeNs kHorizon = 800;

/**
 * Random lifetimes on a coarse 10 ns grid, so allocs, frees and
 * window edges collide often.
 */
std::vector<RandomBlock>
random_blocks(std::uint64_t seed)
{
    Draws next{seed * 1000};
    std::vector<RandomBlock> blocks(1 + next(40));
    for (auto &b : blocks) {
        b.alloc = 10 * next(50);
        b.freed = next(5) != 0;
        b.free = b.alloc + 10 * (1 + next(30));
        b.size = 256 * (1 + next(64));
    }
    return blocks;
}

/** record_blocks' "leave no block out". */
constexpr std::size_t kKeepAll = static_cast<std::size_t>(-1);

/** Records @p blocks in time order, leaving out block @p skip. */
trace::TraceRecorder
record_blocks(const std::vector<RandomBlock> &blocks,
              std::size_t skip = kKeepAll)
{
    trace::TraceRecorder r;
    for (TimeNs now = 0; now <= kHorizon; now += 10) {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            const RandomBlock &b = blocks[i];
            if (i == skip)
                continue;
            if (b.alloc == now)
                r.record(ev(now, trace::EventKind::kMalloc, i, 0, b.size));
            if (b.freed && b.free == now)
                r.record(ev(now, trace::EventKind::kFree, i, 0, b.size));
        }
    }
    return r;
}

TEST(TimelinePeakWith, MatchesBruteForceOnRandomPlans)
{
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const TraceView view(record_blocks(random_blocks(seed)));
        const Timeline &t = view.timeline();
        ASSERT_EQ(t.peak_with({}), t.peak_bytes()) << seed;
        ASSERT_EQ(t.peak_with({}), brute_peak(t, {})) << seed;

        // Residency windows inside random blocks' lifetimes, on the
        // same grid, so windows open and close exactly where base
        // edges (and the timeline's start and end) sit.
        Draws next{seed * 1000 + 500};
        Edges extra;
        const std::size_t windows = next(13);
        for (std::size_t w = 0; w < windows; ++w) {
            const auto &b = t.blocks()[next(t.blocks().size())];
            const TimeNs last = b.freed ? b.free_time : t.end();
            if (last <= b.alloc_time)
                continue;
            const TimeNs steps = (last - b.alloc_time) / 10;
            const TimeNs open = b.alloc_time + 10 * next(steps);
            const TimeNs width = 10 * (1 + next(steps));
            const TimeNs close = std::min(open + width, last);
            const auto size = static_cast<std::int64_t>(b.size);
            extra.push_back({open, -size});
            extra.push_back({close, size});
        }
        EXPECT_EQ(t.peak_with(extra), brute_peak(t, extra))
            << "seed " << seed << ", " << extra.size() << " edges";
    }
}

TEST(TimelinePeakWith, FreesApplyBeforeAllocsAtEqualTimes)
{
    // Blocks 1 and 2 (1 KB each) are allocated at 0; block 1 is
    // freed at 40. A window keeps block 2 off the device over
    // [0, 40): it opens on the two allocs and closes on the free.
    const TraceView view(two_block_trace_touching());
    const Timeline &t = view.timeline();
    ASSERT_EQ(t.peak_bytes(), 2048u);
    const Edges extra = {{40, 1024}, {0, -1024}};
    // Applied allocs-first, either instant would stack to 2048.
    EXPECT_EQ(t.peak_with(extra), 1024u);
    EXPECT_EQ(t.peak_with(extra), brute_peak(t, extra));
}

TEST(TimelinePeakWith, WindowsAtTheTimelineStartAndEnd)
{
    const TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    ASSERT_EQ(t.peak_bytes(), 1536u);
    ASSERT_EQ(t.start(), 0u);
    ASSERT_EQ(t.end(), 90u);
    // Block 1 absent from the first instant: only block 2 remains.
    const Edges from_start = {{0, -512}, {40, 512}};
    EXPECT_EQ(t.peak_with(from_start), 1024u);
    EXPECT_EQ(t.peak_with(from_start), brute_peak(t, from_start));
    // Block 2 (never freed) off the device until the last event.
    const Edges to_end = {{20, -1024}, {90, 1024}};
    EXPECT_EQ(t.peak_with(to_end), 1024u);
    EXPECT_EQ(t.peak_with(to_end), brute_peak(t, to_end));
}

TEST(TimelinePeakWith, WholeLifetimeWindowEqualsTheTraceWithoutTheBlock)
{
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const auto blocks = random_blocks(seed);
        const TraceView view(record_blocks(blocks));
        const Timeline &t = view.timeline();
        const std::size_t victim = splitmix64(seed) % blocks.size();
        const auto &b = blocks[victim];
        if (!b.freed)
            continue;
        const auto size = static_cast<std::int64_t>(b.size);
        const Edges cancel = {{b.alloc, -size}, {b.free, size}};
        const TraceView without(record_blocks(blocks, victim));
        EXPECT_EQ(t.peak_with(cancel), without.timeline().peak_bytes())
            << "seed " << seed;
        EXPECT_EQ(t.peak_with(cancel), brute_peak(t, cancel));
    }
}

TEST(TimelinePeakWith, EmptyTraceHasNoPeak)
{
    const TraceView view{trace::TraceRecorder()};
    EXPECT_EQ(view.timeline().peak_with({}), 0u);
    EXPECT_EQ(view.timeline().peak_with({{5, 128}, {9, -128}}), 128u);
}

TEST(Gantt, RowsOverlapWindow)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    EXPECT_EQ(gantt_rows(t).size(), 2u);
    EXPECT_EQ(gantt_rows(t, 50, 90).size(), 1u)
        << "block 1 is dead before the window";
}

TEST(Gantt, RenderProducesOneLinePerBlock)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    GanttOptions opts;
    opts.width = 40;
    const std::string out = render_gantt(t, opts);
    // Header + 2 block rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Gantt, RenderValidatesOptions)
{
    TraceView view(two_block_trace());
    const Timeline &t = view.timeline();
    GanttOptions narrow;
    narrow.width = 4;
    EXPECT_THROW(render_gantt(t, narrow), Error);
    GanttOptions inverted;
    inverted.from = 100;
    inverted.to = 50;
    EXPECT_THROW(render_gantt(t, inverted), Error);
}

TEST(Gantt, MaxRowsKeepsLargestBlocks)
{
    trace::TraceRecorder r;
    for (BlockId i = 0; i < 10; ++i) {
        r.record(ev(i, trace::EventKind::kMalloc, i,
                    0x1000 * (i + 1), 512 * (i + 1)));
    }
    TraceView view(r);
    const Timeline &t = view.timeline();
    GanttOptions opts;
    opts.max_rows = 3;
    opts.to = 100;
    const std::string out = render_gantt(t, opts);
    EXPECT_NE(out.find("3 blocks"), std::string::npos);
    EXPECT_NE(out.find("5.0 KB"), std::string::npos)
        << "largest block (10*512) must be kept";
}

}  // namespace
}  // namespace analysis
}  // namespace pinpoint
