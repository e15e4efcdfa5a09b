/** @file Unit tests for TraceRecorder. */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/check.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace trace {
namespace {

MemoryEvent
event_at(TimeNs t, EventKind kind = EventKind::kRead,
         BlockId block = 1)
{
    MemoryEvent e;
    e.time = t;
    e.kind = kind;
    e.block = block;
    e.size = 512;
    return e;
}

TEST(TraceRecorder, RecordsInOrder)
{
    TraceRecorder r;
    r.record(event_at(10));
    r.record(event_at(10));  // ties are fine
    r.record(event_at(20));
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.events()[2].time, 20u);
}

TEST(TraceRecorder, RejectsTimeTravel)
{
    TraceRecorder r;
    r.record(event_at(10));
    EXPECT_THROW(r.record(event_at(9)), Error);
}

TEST(TraceRecorder, KeepsEveryFieldOfEachEvent)
{
    TraceRecorder r;
    r.record(event_at(1, EventKind::kMalloc, 7));
    r.record(event_at(2, EventKind::kWrite, 8));
    r.record(event_at(3, EventKind::kRead, 7));
    r.record(event_at(4, EventKind::kRead, 8));
    r.record(event_at(5, EventKind::kFree, 7));
    const auto &events = r.events();
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const MemoryEvent &e) {
                                return e.kind == EventKind::kRead;
                            }),
              2);
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const MemoryEvent &e) {
                                return e.block == 7;
                            }),
              3);
    EXPECT_EQ(events[1].kind, EventKind::kWrite);
    EXPECT_EQ(events[4].block, 7u);
}

TEST(TraceRecorder, ClearEmptiesAndAllowsReuse)
{
    TraceRecorder r;
    r.record(event_at(100));
    r.clear();
    EXPECT_TRUE(r.empty());
    r.record(event_at(1));  // earlier time is fine after clear
    EXPECT_EQ(r.size(), 1u);
}

MemoryEvent
named_at(TimeNs t, const char *op, EventKind kind = EventKind::kRead)
{
    MemoryEvent e = event_at(t, kind);
    e.op = op;
    return e;
}

TEST(TraceRecorder, SharedSnapshotNeverChanges)
{
    TraceRecorder r;
    r.record(named_at(1, "a"));
    r.record(named_at(2, "b"));
    const auto sealed = r.share();
    EXPECT_EQ(sealed, r.share()) << "sharing must not copy";

    // A write after the seal lands in a private copy.
    r.record(named_at(3, "c"));
    EXPECT_NE(sealed, r.share());
    EXPECT_EQ(sealed->rows(), 2u);
    EXPECT_EQ(sealed->op_names, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.events()[2].op, "c");

    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(sealed->rows(), 2u);
    EXPECT_EQ(sealed->time, (std::vector<TimeNs>{1, 2}));
    EXPECT_EQ(sealed->event(1).op, "b");
}

TEST(TraceRecorder, CopiesDivergeOnWrite)
{
    TraceRecorder a;
    a.record(named_at(1, "x"));
    TraceRecorder b = a;
    EXPECT_EQ(a.share(), b.share()) << "a copy shares until it writes";
    b.record(named_at(2, "y"));
    a.record(named_at(5, "z", EventKind::kWrite));
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(a.events()[1].op, "z");
    EXPECT_EQ(a.events()[1].kind, EventKind::kWrite);
    EXPECT_EQ(b.events()[1].op, "y");
    EXPECT_EQ(b.events()[1].time, 2u);
    b.clear();
    EXPECT_EQ(a.size(), 2u);
}

TEST(TraceRecorder, InternsOpNamesInFirstAppearanceOrder)
{
    TraceRecorder r;
    for (const char *op : {"fc1", "alloc.x", "fc1", "", "fc0", "alloc.x"})
        r.record(named_at(r.size(), op));
    const auto cols = r.share();
    EXPECT_EQ(cols->op_names,
              (std::vector<std::string>{"fc1", "alloc.x", "", "fc0"}));
    EXPECT_EQ(cols->op_id, (std::vector<OpId>{0, 1, 0, 2, 3, 1}));
    // intern_op hands out the same ids, and new names go last.
    EXPECT_EQ(r.intern_op("fc0"), 3u);
    EXPECT_EQ(r.intern_op("fc2"), 4u);
    r.record(event_at(10), 4u);
    EXPECT_EQ(r.events().back().op, "fc2");
    EXPECT_THROW(r.record(event_at(11), 5u), Error);
}

TEST(TraceRecorder, InternedIdsSurviveClear)
{
    TraceRecorder r;
    const OpId id = r.intern_op("alloc.w");
    r.record(event_at(1), id);
    r.clear();
    r.record(event_at(0), id);
    EXPECT_EQ(r.events().front().op, "alloc.w");
}

TEST(TraceRecorder, EventRangeIsRandomAccess)
{
    TraceRecorder r;
    for (TimeNs t = 0; t < 5; ++t)
        r.record(named_at(t, t % 2 ? "odd" : "even"));
    const auto events = r.events();
    EXPECT_EQ(events.size(), 5u);
    EXPECT_FALSE(events.empty());
    EXPECT_EQ(events.end() - events.begin(), 5);
    EXPECT_EQ((*(events.begin() + 3)).time, 3u);
    EXPECT_EQ(events.begin()[4].op, "even");
    EXPECT_EQ(events.front().time, 0u);
    EXPECT_EQ(events.back().op, "even");
    std::vector<MemoryEvent> copied(events.begin(), events.end());
    ASSERT_EQ(copied.size(), 5u);
    EXPECT_EQ(copied[1].op, "odd");
    EXPECT_TRUE(TraceRecorder().events().empty());
}

}  // namespace
}  // namespace trace
}  // namespace pinpoint
