#include "analysis/trace_view.h"

#include <algorithm>
#include <unordered_map>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/producers.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "core/check.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {

TraceView::TraceView(const trace::TraceRecorder &recorder)
    : cols_(recorder.share())
{
}

std::unique_ptr<const Timeline>
TraceView::build_timeline() const
{
    // The one Timeline construction site in the codebase: every
    // consumer shares this build through TraceView::timeline().
    std::unique_ptr<Timeline> t(new Timeline());
    // prefix_[0] must exist even for empty traces: live_bytes_at
    // answers from prefix_[upper_bound(...)], which is index 0 when
    // there are no edges.
    t->prefix_.push_back(0);
    const std::size_t n = size();
    if (n == 0)
        return t;
    t->start_ = cols_->time.front();
    t->end_ = cols_->time.back();

    std::unordered_map<BlockId, std::size_t> open;  // block → index
    for (std::size_t i = 0; i < n; ++i) {
        switch (kind(i)) {
          case trace::EventKind::kMalloc: {
            PP_CHECK(!open.count(block(i)),
                     "malloc of already-live block " << block(i));
            BlockLifetime b;
            b.block = block(i);
            b.ptr = ptr(i);
            b.size = event_size(i);
            b.category = category(i);
            b.tensor = tensor(i);
            b.alloc_iteration = iteration(i);
            b.alloc_time = time(i);
            open.emplace(block(i), t->blocks_.size());
            t->blocks_.push_back(std::move(b));
            break;
          }
          case trace::EventKind::kFree: {
            auto it = open.find(block(i));
            PP_CHECK(it != open.end(),
                     "free of unknown block " << block(i));
            BlockLifetime &b = t->blocks_[it->second];
            b.free_time = time(i);
            b.freed = true;
            open.erase(it);
            break;
          }
          case trace::EventKind::kRead:
          case trace::EventKind::kWrite: {
            auto it = open.find(block(i));
            PP_CHECK(it != open.end(),
                     "access to unallocated block " << block(i));
            t->blocks_[it->second].accesses.push_back(time(i));
            break;
          }
        }
    }

    // Freeze the probe structures: the (t, delta)-sorted edges with
    // prefix sums that answer live_bytes_at/peak in O(log n)/O(1)
    // and seed the what-if merges of peak_with.
    t->sorted_edges_.reserve(t->blocks_.size() * 2);
    for (const auto &b : t->blocks_) {
        t->sorted_edges_.push_back(
            {b.alloc_time, static_cast<std::int64_t>(b.size)});
        if (b.freed)
            t->sorted_edges_.push_back(
                {b.free_time, -static_cast<std::int64_t>(b.size)});
    }
    std::sort(t->sorted_edges_.begin(), t->sorted_edges_.end());
    t->prefix_.reserve(t->sorted_edges_.size() + 1);
    std::int64_t cur = 0;
    std::int64_t best = -1;
    TimeNs best_t = t->start_;
    for (const auto &e : t->sorted_edges_) {
        cur += e.delta;
        t->prefix_.push_back(cur);
        if (cur > best) {
            best = cur;
            best_t = e.t;
        }
    }
    t->peak_time_ = best_t;
    t->peak_bytes_ = best > 0 ? static_cast<std::size_t>(best) : 0;
    return t;
}

const Timeline &
TraceView::timeline() const
{
    timeline_once_.call([&] {
        timeline_ = build_timeline();
        timeline_builds_.fetch_add(1, std::memory_order_relaxed);
        events_walked_.fetch_add(size(), std::memory_order_relaxed);
    });
    // A build that throws (inconsistent trace) propagates out of
    // the once-call without satisfying it, so the next caller
    // retries; reaching here guarantees the slot is filled.
    return *timeline_;
}

const ProducerIndex &
TraceView::producers() const
{
    producers_once_.call([&] {
        producers_ = std::make_unique<const ProducerIndex>(
            index_producers(*this));
        producer_builds_.fetch_add(1, std::memory_order_relaxed);
        // Pass 1 walks every event; pass 2 only the write rows.
        events_walked_.fetch_add(
            size() + count(trace::EventKind::kWrite),
            std::memory_order_relaxed);
    });
    return *producers_;
}

const IterationPattern &
TraceView::iteration_pattern() const
{
    pattern_once_.call([&] {
        pattern_ = std::make_unique<const IterationPattern>(
            detect_iteration_pattern(*this));
        pattern_builds_.fetch_add(1, std::memory_order_relaxed);
        events_walked_.fetch_add(size(), std::memory_order_relaxed);
    });
    return *pattern_;
}

void
TraceView::build_atis() const
{
    atis_once_.call([&] {
        atis_ = compute_atis(*this);
        ati_summary_ = summarize(ati_microseconds(atis_));
        ati_builds_.fetch_add(1, std::memory_order_relaxed);
        events_walked_.fetch_add(size(), std::memory_order_relaxed);
    });
}

const std::vector<AtiSample> &
TraceView::atis() const
{
    build_atis();
    return atis_;
}

const SummaryStats &
TraceView::ati_summary() const
{
    build_atis();
    return ati_summary_;
}

const BreakdownResult &
TraceView::breakdown() const
{
    breakdown_once_.call([&] {
        breakdown_ = std::make_unique<const BreakdownResult>(
            occupation_breakdown(*this));
        breakdown_builds_.fetch_add(1, std::memory_order_relaxed);
        events_walked_.fetch_add(size(), std::memory_order_relaxed);
    });
    return *breakdown_;
}

TraceViewStats
TraceView::build_stats() const
{
    TraceViewStats s;
    s.timeline_builds = timeline_builds_.load(std::memory_order_relaxed);
    s.producer_builds = producer_builds_.load(std::memory_order_relaxed);
    s.pattern_builds = pattern_builds_.load(std::memory_order_relaxed);
    s.ati_builds = ati_builds_.load(std::memory_order_relaxed);
    s.breakdown_builds =
        breakdown_builds_.load(std::memory_order_relaxed);
    s.events_walked = events_walked_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace analysis
}  // namespace pinpoint
