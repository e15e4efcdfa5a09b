/**
 * @file
 * Helpers of the benchmark itself, independent of the simulator:
 * sample statistics, in-memory span tracing with self time, the
 * peak-RSS reader, and the one-line JSON result writer. Unit-tested
 * by selftest.cc.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the host's steady clock. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A percentile together with the sample it was taken from. */
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0;
};

/**
 * @return the nearest-rank @p pct percentile (0 < pct <= 100) of
 * @p values: the smallest sample with at least pct% of the samples
 * at or below it. An empty sample gives {0, 0}.
 */
Percentile nearest_rank(std::vector<double> values, double pct);

/** @return the median (mean of the middle two for even sizes). */
double median(std::vector<double> values);

/** @return the arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

/** One timed call: the layer it entered and its parent span. */
struct Span {
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/**
 * Collects spans in memory. Thread-safe: pool workers record into
 * one tracer. A null Tracer pointer disables recording everywhere.
 */
class Tracer
{
  public:
    /** @return a fresh span id (ids start at 1). */
    std::uint64_t next_id();

    void record(Span span);

    /** @return every span recorded since the last take(). */
    std::vector<Span> take();

  private:
    std::mutex mutex_;
    std::uint64_t last_id_ = 0;
    std::vector<Span> spans_;
};

/**
 * RAII span: starts on construction, records on destruction (also
 * when the timed call throws). Does nothing when the tracer is null.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name,
               std::uint64_t parent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** @return this span's id, to parent child spans (0 if off). */
    std::uint64_t id() const { return span_.id; }

  private:
    Tracer *tracer_;
    Span span_;
};

/**
 * @return each span's self time, by span id: its duration minus
 * the part of its interval covered by the union of its children.
 */
std::map<std::uint64_t, std::int64_t>
self_times(const std::vector<Span> &spans);

/** @return total span duration per name. */
std::map<std::string, std::int64_t>
duration_by_name(const std::vector<Span> &spans);

/** @return total self time per name. */
std::map<std::string, std::int64_t>
self_time_by_name(const std::vector<Span> &spans);

/**
 * @return the VmHWM (peak resident set) of a /proc/<pid>/status
 * text, in kB, or nothing when the field is absent or malformed.
 */
std::optional<std::uint64_t> parse_vm_hwm_kb(const std::string &status);

/**
 * @return this process's peak resident set in MB (2^20 bytes), read
 * from /proc/self/status, or from getrusage where that is missing.
 */
double peak_rss_mb();

/**
 * A fixed piece of host work that gauges how fast the shared host
 * runs right now: inserts into, erases from and walks of a hash map
 * and a tree map, and a sort, much like the simulator's own mix. It
 * runs on as many threads at once as the timed work uses, so it
 * also sees how many of the host's cores are free. Its containers
 * allocate from arenas the constructor allocates once, so the heap
 * state the benchmarked program leaves behind cannot change the
 * probe's speed.
 */
class SpeedProbe
{
  public:
    /** @param threads copies of the work to run at once (>= 1). */
    explicit SpeedProbe(int threads = 1);

    /**
     * Runs the fixed work once on each thread, all at once.
     * @return host seconds until the last copy finished.
     */
    double time_s();

    /** @return a digest of the last run's results; equal on every run. */
    std::uint64_t digest() const { return digest_; }

  private:
    std::vector<std::vector<std::byte>> arenas_;
    std::vector<std::uint64_t> digests_;
    std::uint64_t digest_ = 0;
};

/**
 * Host seconds SpeedProbe::time_s() takes at the reference host
 * speed: about its median, on one thread, on the 4-vCPU Xeon VM the
 * benchmark was defined on, over quiet and busy periods.
 */
constexpr double kProbeReferenceS = 0.11;

/**
 * @return @p host_s rescaled to the reference host speed, given that
 * the probe took @p probe_s beside it: host_s * kProbeReferenceS /
 * probe_s. 0 when @p probe_s is not positive.
 */
double at_reference_speed(double host_s, double probe_s);

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * @return the benchmark's result line: one JSON object with the
 * keys correct, attempted, failed and metrics. Values print with
 * full precision; non-finite values print as null.
 */
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric> &metrics);

/** @return @p text as a JSON string literal. */
std::string json_string(const std::string &text);

}  // namespace perfbench
