/** @file Unit tests for TraceRecorder. */
#include <gtest/gtest.h>

#include <algorithm>

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

}  // namespace
}  // namespace trace
}  // namespace pinpoint
