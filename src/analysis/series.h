/**
 * @file
 * Occupancy time series: per-category live bytes sampled over the
 * trace, the data one would plot under the paper's Gantt chart (or
 * feed to any external plotting tool).
 */
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <vector>

#include "core/types.h"

namespace pinpoint {
namespace analysis {

/** One sample of the occupancy series. */
struct OccupancyPoint {
    TimeNs time = 0;
    /** Live bytes per Category at this instant. */
    std::array<std::size_t, kNumCategories> bytes{};

    /** @return category sum. */
    std::size_t total() const;
};

class TraceView;

/**
 * Samples per-category occupancy at every alloc/free edge of
 * @p view's trace (exact, no interpolation). When @p max_points
 * > 0 the series is thinned to at most that many points while always
 * keeping the global peak sample. One pass over the sealed columns:
 * O(n + m) for n events and m emitted points.
 */
std::vector<OccupancyPoint>
occupancy_series(const TraceView &view, std::size_t max_points = 0);

/** Writes the series as CSV ("time_ns,input,parameter,...") to @p os. */
void write_series_csv(const std::vector<OccupancyPoint> &series,
                      std::ostream &os);

}  // namespace analysis
}  // namespace pinpoint

