/**
 * @file
 * analysis::TraceView — one immutable snapshot of a recorded trace,
 * shared by every downstream analysis.
 *
 * The paper's whole method is "record one memory-event trace, then
 * derive every characterization from it". A TraceView is that trace
 * sealed once per run: the recorder already stores its events in
 * columnar (SoA) form, and the view takes shared ownership of those
 * columns instead of copying them. On top of them it keeps every
 * expensive derived index — the block Timeline, the recompute
 * producer index, the iteration pattern, the occupation breakdown,
 * the default ATIs and their summary — each built lazily, exactly
 * once, behind a core OnceFlag, and shared by reference with the
 * analysis, swap, relief, runtime, and api layers. The invariant is
 * *one build per run*, and build_stats() makes it checkable from
 * benches and tests.
 *
 * Invariants:
 *   - A TraceView never mutates after construction; every accessor
 *     is const and safe to call from many threads concurrently.
 *   - The view co-owns its storage: the TraceRecorder it was sealed
 *     from may be written to, cleared or destroyed afterwards (the
 *     recorder copies its columns before writing while a view
 *     shares them).
 *   - Each sub-index is built at most once (OnceFlag);
 *     concurrent first accessors share one computation.
 *   - TraceView is neither copyable nor movable — share it by
 *     reference (or hold it behind a shared_ptr, as
 *     runtime::SessionResult::view() does).
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ati.h"
#include "analysis/breakdown.h"
#include "analysis/iteration.h"
#include "analysis/producers.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "core/once.h"
#include "core/types.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace analysis {

/**
 * Build/work counters of one TraceView — the perf invariant made
 * observable. A consumer stack that shares the view correctly shows
 * at most one build per sub-index no matter how many analyses ran.
 */
struct TraceViewStats {
    /** Timeline constructions (0 before first use, then 1). */
    std::size_t timeline_builds = 0;
    /** Producer-index constructions. */
    std::size_t producer_builds = 0;
    /** Iteration-pattern detections. */
    std::size_t pattern_builds = 0;
    /** Default-option ATI builds (samples plus their summary). */
    std::size_t ati_builds = 0;
    /** Occupation-breakdown replays. */
    std::size_t breakdown_builds = 0;
    /**
     * Events scanned across every sub-index build. The seal walks
     * none: it shares the recorder's columns.
     */
    std::size_t events_walked = 0;

    /** @return total sub-index builds. */
    std::size_t index_builds() const
    {
        return timeline_builds + producer_builds + pattern_builds +
               ati_builds + breakdown_builds;
    }
};

/**
 * Immutable, cheaply-shareable snapshot of one recorded trace with
 * lazily-built, cached sub-indices. See the file comment for the
 * sharing contract.
 */
class TraceView
{
  public:
    /**
     * Seals @p recorder's events: shares its columns, O(1). The
     * recorder is not retained.
     */
    explicit TraceView(const trace::TraceRecorder &recorder);

    TraceView(const TraceView &) = delete;
    TraceView &operator=(const TraceView &) = delete;

    /** @return number of events in the snapshot. */
    std::size_t size() const { return cols_->rows(); }

    /** @return true when the snapshot holds no events. */
    bool empty() const { return size() == 0; }

    /**
     * @return true while @p recorder still holds exactly the events
     * this view sealed (it has not been written to since). O(1).
     */
    bool seals(const trace::TraceRecorder &recorder) const
    {
        return recorder.share() == cols_;
    }

    // --- columnar event access ------------------------------------

    TimeNs time(std::size_t i) const { return cols_->time[i]; }
    trace::EventKind kind(std::size_t i) const { return cols_->kind[i]; }
    BlockId block(std::size_t i) const { return cols_->block[i]; }
    DevPtr ptr(std::size_t i) const { return cols_->ptr[i]; }
    std::size_t event_size(std::size_t i) const { return cols_->size[i]; }
    TensorId tensor(std::size_t i) const { return cols_->tensor[i]; }
    Category category(std::size_t i) const { return cols_->category[i]; }
    std::uint32_t iteration(std::size_t i) const
    {
        return cols_->iteration[i];
    }
    std::int32_t op_index(std::size_t i) const
    {
        return cols_->op_index[i];
    }

    /**
     * @return the (interned) op name of event @p i; the reference
     * lives as long as the view.
     */
    const std::string &op(std::size_t i) const
    {
        return cols_->op_names[cols_->op_id[i]];
    }

    // --- per-kind counts and offsets ------------------------------

    /** @return count of events of kind @p k. O(1). */
    std::size_t count(trace::EventKind k) const
    {
        return indices_of(k).size();
    }

    /**
     * @return the event indices of kind @p k, in trace order — the
     * zero-copy replacement for TraceRecorder::filter-by-kind.
     */
    const std::vector<std::size_t> &indices_of(trace::EventKind k) const
    {
        return cols_->by_kind[static_cast<std::size_t>(k)];
    }

    // --- lazy cached sub-indices ----------------------------------

    /**
     * @return the per-block Timeline. Built on first access (the
     * one Timeline construction site in the codebase), then shared.
     * @throws Error on inconsistent traces (access to unallocated
     * blocks, double mallocs) — on every call, the failed build is
     * retried so the error is not sticky-silent.
     */
    const Timeline &timeline() const;

    /** @return the recompute producer index, built once. */
    const ProducerIndex &producers() const;

    /** @return the iterative-pattern verdict, built once. */
    const IterationPattern &iteration_pattern() const;

    /**
     * @return compute_atis(*this) for the default AtiOptions, built
     * once together with ati_summary().
     */
    const std::vector<AtiSample> &atis() const;

    /** @return summary statistics of atis() in microseconds. */
    const SummaryStats &ati_summary() const;

    /**
     * @return occupation_breakdown(*this), built once.
     * @throws Error on inconsistent traces, on every call (a failed
     * build is retried, like timeline()).
     */
    const BreakdownResult &breakdown() const;

    /** @return a snapshot of the build/work counters. */
    TraceViewStats build_stats() const;

  private:
    std::unique_ptr<const Timeline> build_timeline() const;
    void build_atis() const;

    /** The sealed event columns, shared with the recorder. */
    std::shared_ptr<const trace::EventColumns> cols_;

    // Lazy sub-indices. A failed build (inconsistent trace) leaves
    // the slot empty and the accessor rethrows on the next call.
    mutable OnceFlag timeline_once_;
    mutable std::unique_ptr<const Timeline> timeline_;
    mutable OnceFlag producers_once_;
    mutable std::unique_ptr<const ProducerIndex> producers_;
    mutable OnceFlag pattern_once_;
    mutable std::unique_ptr<const IterationPattern> pattern_;
    mutable OnceFlag atis_once_;
    mutable std::vector<AtiSample> atis_;
    mutable SummaryStats ati_summary_;
    mutable OnceFlag breakdown_once_;
    mutable std::unique_ptr<const BreakdownResult> breakdown_;

    mutable std::atomic<std::size_t> timeline_builds_{0};
    mutable std::atomic<std::size_t> producer_builds_{0};
    mutable std::atomic<std::size_t> pattern_builds_{0};
    mutable std::atomic<std::size_t> ati_builds_{0};
    mutable std::atomic<std::size_t> breakdown_builds_{0};
    mutable std::atomic<std::size_t> events_walked_{0};
};

}  // namespace analysis
}  // namespace pinpoint

