#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/workload.h"
#include "layers.h"
#include "nn/models.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sweep/cache.h"
#include "sweep/driver.h"
#include "sweep/export.h"
#include "sweep/scenario.h"
#include "sweep/thread_pool.h"

namespace perfbench {

using namespace pinpoint;
namespace fs = std::filesystem;

namespace {

/**
 * Requests in the serving stream. Long enough that one pass takes
 * about two host seconds, short enough to stay under 1 GB of RSS.
 */
constexpr int kServeRequests = 2000;

/**
 * Requests in the serving warm-up stream set-up runs, so the first
 * timed pass does not pay for first-touch page faults alone.
 */
constexpr int kWarmupRequests = 100;

/** Work one pass did, and what its output checks found. */
struct PassResult {
    /** Host seconds of the timed work (allocator replay excluded). */
    double wall_s = 0.0;
    /** Simulated memory events the pass recorded. */
    double events = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Deterministic counters; equal on every pass of one seed. */
    Counters counters;
    /** Host timestamps at which pool work completed, in order. */
    std::vector<std::int64_t> completions_ns;
    /** Threads the pass ran scenarios on. */
    int workers = 1;
};

/** A workload: set-up plus an untraced and a traced pass. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual std::string seed_note() const = 0;
    /** Threads the timed work keeps busy at once. */
    virtual int threads() const { return 1; }
    /** Builds the inputs the passes use; may count failures. */
    virtual PassResult setup() = 0;
    virtual PassResult untraced_pass() = 0;
    virtual PassResult traced_pass(Tracer &tracer,
                                   std::uint64_t pass_span) = 0;
    /** Checks that need more than an untraced pass gives. */
    virtual PassResult verify() { return {}; }
};

double
seconds_since(std::int64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::string>
encode_rows(const std::vector<sweep::ScenarioResult> &rows)
{
    std::vector<std::string> out;
    out.reserve(rows.size());
    for (const auto &r : rows)
        out.push_back(sweep::encode_result_record(r));
    return out;
}

/** Rows whose encoding differs from @p reference (all, if sizes differ). */
std::uint64_t
mismatched_rows(const std::vector<sweep::ScenarioResult> &rows,
                const std::vector<std::string> &reference)
{
    if (reference.empty())
        return 0;
    if (rows.size() != reference.size())
        return rows.size();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (sweep::encode_result_record(rows[i]) == reference[i])
            continue;
        std::cerr << "perfbench: layered row differs from the sweep's: "
                  << rows[i].scenario.id() << "\n";
        ++bad;
    }
    return bad;
}

sweep::SweepReport
report_of(std::vector<sweep::ScenarioResult> rows, int jobs)
{
    sweep::SweepReport report;
    report.results = std::move(rows);
    report.jobs = jobs;
    for (const auto &r : report.results) {
        switch (r.status) {
          case sweep::ScenarioStatus::kOk: ++report.succeeded; break;
          case sweep::ScenarioStatus::kOom: ++report.oom; break;
          case sweep::ScenarioStatus::kError: ++report.failed; break;
        }
    }
    return report;
}

/** @return CSV plus JSON export size: what `sweep --csv --json` writes. */
double
export_bytes(const sweep::SweepReport &report)
{
    return static_cast<double>(sweep::sweep_csv_string(report).size() +
                               sweep::sweep_json_string(report).size());
}

double
total_events(const std::vector<sweep::ScenarioResult> &rows)
{
    double events = 0.0;
    for (const auto &r : rows)
        events += static_cast<double>(r.event_count);
    return events;
}

// ------------------------------------------------------------------
// zoo_train_serial
// ------------------------------------------------------------------

/**
 * The cold default zoo sweep at jobs=1 with swap and relief planning:
 * the workload where the relief and swap layers do most of the work.
 */
class ZooTrainSerial : public Workload
{
  public:
    std::string
    seed_note() const override
    {
        return "ignored: zoo_train_serial has no random input";
    }

    PassResult
    setup() override
    {
        scenarios_ = sweep::expand_grid(sweep::SweepGrid{});
        for (const auto &s : scenarios_) {
            s.validate();
            (void)s.build();
        }
        return {};
    }

    PassResult
    untraced_pass() override
    {
        sweep::SweepOptions options;
        options.jobs = 1;
        const std::int64_t start = now_ns();
        const sweep::SweepReport report =
            sweep::run_sweep(scenarios_, options);
        const double bytes = export_bytes(report);
        PassResult p;
        p.wall_s = seconds_since(start);
        p.events = total_events(report.results);
        p.attempted = scenarios_.size();
        p.failed = report.failed;
        if (report.succeeded + report.oom != scenarios_.size())
            p.failed = std::max<std::uint64_t>(p.failed, 1);
        p.counters["sweep.export_bytes"] = bytes;
        reference_ = encode_rows(report.results);
        return p;
    }

    PassResult
    traced_pass(Tracer &tracer, std::uint64_t pass_span) override
    {
        return layered_pass(&tracer, pass_span);
    }

    PassResult verify() override { return layered_pass(nullptr, 0); }

  private:
    /**
     * The sweep, scenario by scenario through layers.h. Its rows
     * must encode exactly as the last untraced pass's, and on every
     * ok scenario the hybrid relief must reduce the peak at least as
     * much as each available single mechanism.
     */
    PassResult
    layered_pass(Tracer *tracer, std::uint64_t pass_span)
    {
        PassResult p;
        std::int64_t excluded_ns = 0;
        const std::int64_t start = now_ns();
        std::vector<sweep::ScenarioResult> rows;
        rows.reserve(scenarios_.size());
        for (const auto &s : scenarios_) {
            LayeredScenario run =
                run_scenario_layered(s, tracer, pass_span, true);
            excluded_ns += run.replay_ns;
            add_counters(p.counters, run.counters);
            if (!run.hybrid_dominates) {
                std::cerr << "zoo_train_serial: hybrid relief predicts "
                             "less than a single mechanism on "
                          << s.id() << "\n";
                ++p.failed;
            }
            if (run.result.status == sweep::ScenarioStatus::kError)
                ++p.failed;
            rows.push_back(std::move(run.result));
            p.completions_ns.push_back(now_ns());
        }
        sweep::SweepReport report = report_of(std::move(rows), 1);
        {
            ScopedSpan span(tracer, "sweep.export", pass_span);
            p.counters["sweep.export_bytes"] = export_bytes(report);
        }
        p.wall_s = static_cast<double>(now_ns() - start - excluded_ns) *
                   1e-9;
        p.events = total_events(report.results);
        p.attempted = scenarios_.size();
        p.failed += mismatched_rows(report.results, reference_);
        return p;
    }

    std::vector<sweep::Scenario> scenarios_;
    /** Encoded rows of the last untraced pass. */
    std::vector<std::string> reference_;
};

// ------------------------------------------------------------------
// serve_stream
// ------------------------------------------------------------------

/**
 * One long bursty resnet50/b16 serving stream plus the characterize
 * analyses: engine, trace recording, freeze and analysis do all the
 * work; swap and relief do none.
 */
class ServeStream : public Workload
{
  public:
    explicit ServeStream(std::uint64_t seed) : seed_(seed) {}

    std::string
    seed_note() const override
    {
        return "InferenceConfig.seed = " + std::to_string(seed_);
    }

    PassResult
    setup() override
    {
        spec_.model = "resnet50";
        spec_.batch = 16;
        spec_.mode = runtime::SessionMode::kInfer;
        spec_.requests = kServeRequests;
        spec_.arrival = runtime::ArrivalKind::kBursty;
        spec_.validate();
        model_.emplace(spec_.build());
        config_ = spec_.inference_config();
        config_.seed = seed_;
        runtime::InferenceConfig warmup = config_;
        warmup.requests = kWarmupRequests;
        return check(run_stream(spec_, *model_, warmup, nullptr, 0));
    }

    PassResult untraced_pass() override { return pass(nullptr, 0); }

    PassResult
    traced_pass(Tracer &tracer, std::uint64_t pass_span) override
    {
        return pass(&tracer, pass_span);
    }

  private:
    PassResult
    pass(Tracer *tracer, std::uint64_t pass_span)
    {
        const std::int64_t start = now_ns();
        StreamOutcome o =
            run_stream(spec_, *model_, config_, tracer, pass_span);
        const std::int64_t end = now_ns();
        const std::int64_t replay_ns = o.replay_ns;
        PassResult p = check(std::move(o));
        p.wall_s = static_cast<double>(end - start - replay_ns) * 1e-9;
        p.completions_ns.push_back(end);
        return p;
    }

    /**
     * Every request completes, simulated p50 <= p90 <= p99 <= max,
     * and all the analyses shared one timeline build.
     */
    static PassResult
    check(StreamOutcome o)
    {
        PassResult p;
        p.events = o.counters["runtime.events"];
        p.counters = std::move(o.counters);
        p.attempted = static_cast<std::uint64_t>(o.requests);
        if (!o.error.empty()) {
            std::cerr << "serve_stream: " << o.error << "\n";
            p.failed = p.attempted;
            return p;
        }
        p.failed = static_cast<std::uint64_t>(o.requests - o.completed);
        if (!o.percentiles_ordered)
            ++p.failed;
        if (o.timeline_builds != 1)
            ++p.failed;
        if (o.report_bytes == 0)
            ++p.failed;
        p.failed = std::min(p.failed, p.attempted);
        return p;
    }

    std::uint64_t seed_;
    api::WorkloadSpec spec_;
    std::optional<nn::Model> model_;
    runtime::InferenceConfig config_;
};

// ------------------------------------------------------------------
// zoo_dp_pool_cache
// ------------------------------------------------------------------

/** A directory under the work dir, removed when it goes out of scope. */
class TempDir
{
  public:
    explicit TempDir(fs::path path) : path_(std::move(path))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/**
 * The zoo x devices {1,2} grid through the worker pool with a result
 * cache primed (in set-up) with a seed-chosen half of the grid: the
 * one workload with pool scheduling, cache reads beside cache writes,
 * and data-parallel runs with peer-offload relief.
 */
class ZooDpPoolCache : public Workload
{
  public:
    ZooDpPoolCache(std::uint64_t seed, const std::string &work_dir)
        : seed_(seed),
          root_(fs::path(work_dir) /
                ("pool-cache-" + std::to_string(seed) + "-" +
                 std::to_string(now_ns())))
    {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs_ = static_cast<int>(std::clamp(hw, 2u, 4u));
    }

    int threads() const override { return jobs_; }

    std::string
    seed_note() const override
    {
        return "seed chooses the primed half of the grid, one "
               "scenario of each cost-neighbour pair";
    }

    PassResult
    setup() override
    {
        sweep::SweepGrid grid;
        grid.device_counts = {1, 2};
        scenarios_ = sweep::expand_grid(grid);

        // Pair scenarios of neighbouring estimated cost (the pool's own
        // cost order) and let the seed prime one of each pair, so the
        // misses left for the timed pass cost about the same on every
        // seed.
        std::vector<std::size_t> all(scenarios_.size());
        std::iota(all.begin(), all.end(), std::size_t{0});
        const std::vector<std::size_t> by_cost =
            sweep::submission_order(scenarios_, all, {});
        std::uint64_t state = seed_;
        primed_.clear();
        for (std::size_t i = 0; i + 1 < by_cost.size(); i += 2)
            primed_.push_back(by_cost[i + (splitmix64(state) & 1)]);
        std::sort(primed_.begin(), primed_.end());

        template_.reset();
        template_ = std::make_unique<TempDir>(root_.path() / "primed");
        const sweep::ResultCache cache(template_->path().string());
        sweep::SweepOptions options;
        options.jobs = jobs_;
        options.cache = &cache;
        const sweep::SweepReport report =
            sweep::run_sweep_subset(scenarios_, primed_, options);
        primed_rows_.assign(scenarios_.size(), std::string());
        for (std::size_t k = 0; k < primed_.size(); ++k)
            primed_rows_[primed_[k]] =
                sweep::encode_result_record(report.results[k]);
        PassResult p;
        p.attempted = primed_.size();
        p.failed = report.failed;
        return p;
    }

    PassResult
    untraced_pass() override
    {
        const auto dir = fresh_cache();
        const sweep::ResultCache cache(dir->path().string());
        sweep::SweepOptions options;
        options.jobs = jobs_;
        options.cache = &cache;
        const std::int64_t start = now_ns();
        const sweep::SweepReport report =
            sweep::run_sweep(scenarios_, options);
        const double bytes = export_bytes(report);
        PassResult p;
        p.wall_s = seconds_since(start);
        p.workers = jobs_;
        p.events = miss_events(report.results);
        p.counters["sweep.export_bytes"] = bytes;
        check(report, report.cache_hits, report.cache_misses, p);
        reference_ = encode_rows(report.results);
        return p;
    }

    /**
     * The sweep driver's steps, called from here: serial cache probe
     * in grid order, cost-ordered submission of the misses to the
     * pool, each miss run through layers.h and stored back.
     */
    PassResult
    traced_pass(Tracer &tracer, std::uint64_t pass_span) override
    {
        const auto dir = fresh_cache();
        const sweep::ResultCache cache(dir->path().string());
        PassResult p;
        p.workers = jobs_;
        const std::int64_t start = now_ns();
        std::vector<sweep::ScenarioResult> rows(scenarios_.size());
        std::vector<std::size_t> pending;
        std::vector<std::uint64_t> hints;
        std::size_t hits = 0;
        for (std::size_t k = 0; k < scenarios_.size(); ++k) {
            std::uint64_t hint = 0;
            const sweep::CacheLookup lookup = [&] {
                ScopedSpan span(&tracer, "sweep.cache_load", pass_span);
                return cache.load(scenarios_[k], true, rows[k], hint);
            }();
            if (lookup == sweep::CacheLookup::kHit) {
                ++hits;
                continue;
            }
            pending.push_back(k);
            hints.push_back(hint);
        }

        std::mutex mutex;
        {
            const std::vector<std::size_t> order =
                sweep::submission_order(scenarios_, pending, hints);
            sweep::ThreadPool pool(jobs_);
            for (const std::size_t o : order) {
                pool.submit([&, k = pending[o]] {
                    const std::int64_t t0 = now_ns();
                    LayeredScenario run = run_scenario_layered(
                        scenarios_[k], &tracer, pass_span, false);
                    const auto wall_ns =
                        static_cast<std::uint64_t>(now_ns() - t0);
                    {
                        ScopedSpan span(&tracer, "sweep.cache_store",
                                        pass_span);
                        cache.store(scenarios_[k], true, run.result,
                                    wall_ns);
                    }
                    std::lock_guard<std::mutex> lock(mutex);
                    add_counters(p.counters, run.counters);
                    if (!run.hybrid_dominates)
                        ++p.failed;
                    rows[k] = std::move(run.result);
                    p.completions_ns.push_back(now_ns());
                });
            }
            pool.wait();
        }
        sweep::SweepReport report = report_of(std::move(rows), jobs_);
        {
            ScopedSpan span(&tracer, "sweep.export", pass_span);
            p.counters["sweep.export_bytes"] = export_bytes(report);
        }
        p.wall_s = seconds_since(start);
        p.events = miss_events(report.results);
        p.counters["sweep.cache_hits"] = static_cast<double>(hits);
        p.counters["sweep.cache_misses"] =
            static_cast<double>(pending.size());
        check(report, hits, pending.size(), p);
        p.failed += mismatched_rows(report.results, reference_);
        return p;
    }

  private:
    /** A copy of the primed cache, for one pass to consume. */
    std::unique_ptr<TempDir>
    fresh_cache() const
    {
        auto dir = std::make_unique<TempDir>(root_.path() / "pass");
        fs::copy(template_->path(), dir->path(),
                 fs::copy_options::recursive);
        return dir;
    }

    /** Simulated events of the rows the pass ran (not the hits). */
    double
    miss_events(const std::vector<sweep::ScenarioResult> &rows) const
    {
        double events = 0.0;
        for (std::size_t i = 0; i < rows.size(); ++i)
            if (primed_rows_[i].empty())
                events += static_cast<double>(rows[i].event_count);
        return events;
    }

    /**
     * Hits must equal the primed count, rows must come back in grid
     * order, and every primed row must read back as it was stored.
     */
    void
    check(const sweep::SweepReport &report, std::size_t hits,
          std::size_t misses, PassResult &p) const
    {
        p.attempted = scenarios_.size();
        p.failed += report.failed;
        if (hits != primed_.size() ||
            misses != scenarios_.size() - primed_.size())
            ++p.failed;
        for (std::size_t i = 0; i < scenarios_.size(); ++i) {
            const auto &row = report.results[i];
            if (sweep::ResultCache::key(row.scenario, true) !=
                sweep::ResultCache::key(scenarios_[i], true))
                ++p.failed;
            else if (!primed_rows_[i].empty() &&
                     sweep::encode_result_record(row) != primed_rows_[i])
                ++p.failed;
        }
        p.failed = std::min<std::uint64_t>(p.failed, p.attempted);
    }

    std::uint64_t seed_;
    int jobs_ = 2;
    /** Holds the primed template and each pass's copy of it. */
    TempDir root_;
    std::vector<sweep::Scenario> scenarios_;
    std::vector<std::size_t> primed_;
    /** Encoded primed rows by grid index; empty when not primed. */
    std::vector<std::string> primed_rows_;
    std::unique_ptr<TempDir> template_;
    std::vector<std::string> reference_;
};

// ------------------------------------------------------------------
// harness
// ------------------------------------------------------------------

std::unique_ptr<Workload>
make_workload(const RunOptions &options)
{
    if (options.workload == "zoo_train_serial")
        return std::make_unique<ZooTrainSerial>();
    if (options.workload == "serve_stream")
        return std::make_unique<ServeStream>(options.seed);
    if (options.workload == "zoo_dp_pool_cache")
        return std::make_unique<ZooDpPoolCache>(options.seed,
                                                options.work_dir);
    throw std::invalid_argument("unknown workload '" +
                                options.workload + "'");
}

using NamePairs = std::vector<std::pair<std::string, std::string>>;

/** Span name behind each per-layer time metric. */
const NamePairs &
layer_spans()
{
    static const NamePairs spans = {
        {"nn.build_ns", "nn.build"},
        {"runtime.run_ns", "runtime.run"},
        {"alloc.replay_ns", "alloc.replay"},
        {"analysis.freeze_ns", "analysis.freeze"},
        {"analysis.timeline_ns", "analysis.timeline"},
        {"analysis.ati_ns", "analysis.ati"},
        {"analysis.breakdown_ns", "analysis.breakdown"},
        {"analysis.report_ns", "analysis.report"},
        {"swap.plan_ns", "swap.plan"},
        {"swap.execute_ns", "swap.execute"},
        {"relief.plan_all_ns", "relief.plan_all"},
        {"api.teardown_ns", "api.teardown"},
        {"sweep.cache_load_ns", "sweep.cache_load"},
        {"sweep.cache_store_ns", "sweep.cache_store"},
        {"sweep.export_ns", "sweep.export"},
    };
    return spans;
}

/** Exact counters every traced run reports, with their units. */
const NamePairs &
exact_counters()
{
    static const NamePairs c = {
        {"runtime.events", "count"},
        {"runtime.sim_end_ns", "sim_ns"},
        {"runtime.allreduce_stall_ns", "sim_ns"},
        {"alloc.allocs", "count"},
        {"alloc.device_allocs", "count"},
        {"analysis.events_walked", "count"},
        {"analysis.timeline_builds", "count"},
        {"swap.decisions", "count"},
        {"swap.bytes_moved", "B"},
        {"relief.decisions", "count"},
        {"relief.hybrid_measured_shortfalls", "count"},
        {"sweep.cache_hits", "count"},
        {"sweep.cache_misses", "count"},
        {"sweep.export_bytes", "B"},
    };
    return c;
}

/**
 * Straggler tail: from the completion that leaves the first worker
 * with nothing to start, to the last completion.
 */
double
pool_tail_s(const std::vector<std::int64_t> &completions, int workers)
{
    if (completions.empty())
        return 0.0;
    std::vector<std::int64_t> t = completions;
    std::sort(t.begin(), t.end());
    const std::size_t n = t.size();
    const std::size_t w = static_cast<std::size_t>(std::max(workers, 1));
    const std::size_t first_idle = n > w ? n - w : 0;
    return static_cast<double>(t.back() - t[first_idle]) * 1e-9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
write_spans(const std::string &path,
            const std::vector<std::vector<Span>> &passes)
{
    std::ofstream out(path);
    for (std::size_t k = 0; k < passes.size(); ++k) {
        const auto self = self_times(passes[k]);
        for (const Span &s : passes[k])
            out << "{\"pass\": " << k << ", \"id\": " << s.id
                << ", \"parent\": " << s.parent
                << ", \"name\": " << json_string(s.name)
                << ", \"start_ns\": " << s.start_ns
                << ", \"end_ns\": " << s.end_ns
                << ", \"self_ns\": " << self.at(s.id) << "}\n";
    }
}

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 400;
constexpr double kMinSetupSeconds = 1.0;
/** Least probe time per second of timed work in an untraced run. */
constexpr double kProbeShare = 0.5;

/**
 * Host times of one kind of timed work, with speed probe times taken
 * among them: one probe at the start, then another whenever the probe
 * time falls below kProbeShare of the work's, so the probe samples
 * the host's drift about as evenly as the work does.
 */
class ProbedTimes
{
  public:
    explicit ProbedTimes(SpeedProbe &probe) : probe_(probe)
    {
        add_probe();
    }

    void
    add(double work_s)
    {
        work_s_.push_back(work_s);
        work_total_ += work_s;
        while (probe_total_ < kProbeShare * work_total_)
            add_probe();
    }

    const std::vector<double> &work_s() const { return work_s_; }
    const std::vector<double> &probe_s() const { return probe_s_; }

  private:
    void
    add_probe()
    {
        probe_s_.push_back(probe_.time_s());
        probe_total_ += probe_s_.back();
    }

    SpeedProbe &probe_;
    std::vector<double> work_s_, probe_s_;
    double work_total_ = 0.0, probe_total_ = 0.0;
};

/**
 * Untraced run: the end-to-end metrics. The shared host's speed
 * drifts by a fifth and more over minutes, so times are rescaled to
 * the reference speed by speed probes taken among them (see
 * ProbedTimes and at_reference_speed). Pass times are compared with
 * the probe as means over the whole run, so that both cover the same
 * stretch of the host's drift.
 */
void
untraced_run(Workload &w, const RunOptions &options, RunReport &rep)
{
    SpeedProbe probe(w.threads());

    // Set-up repeats at least kMinSetups times and until
    // kMinSetupSeconds are spent, so a cheap set-up is still a
    // steady median.
    ProbedTimes setups(probe);
    double spent = 0.0;
    while (setups.work_s().size() < kMinSetups ||
           (spent < kMinSetupSeconds &&
            setups.work_s().size() < kMaxSetups)) {
        const std::int64_t start = now_ns();
        const PassResult s = w.setup();
        const double setup_s = seconds_since(start);
        setups.add(setup_s);
        spent += setup_s;
        rep.attempted += s.attempted;
        rep.failed += s.failed;
    }

    ProbedTimes passes(probe);
    double events = 0.0;
    std::optional<Counters> counters;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    do {
        const PassResult p = w.untraced_pass();
        passes.add(p.wall_s);
        events += p.events;
        rep.attempted += p.attempted;
        rep.failed += p.failed;
        if (counters && *counters != p.counters)
            ++rep.failed;
        counters = p.counters;
    } while (now_ns() < deadline);
    const PassResult v = w.verify();
    rep.attempted += v.attempted;
    rep.failed += v.failed;

    const std::vector<double> &walls = passes.work_s();
    const double wall =
        at_reference_speed(mean(walls), mean(passes.probe_s()));
    const double ok = 1.0 - ratio(static_cast<double>(rep.failed),
                                  static_cast<double>(rep.attempted));
    rep.metrics = {
        {"setup_s",
         at_reference_speed(median(setups.work_s()),
                            mean(setups.probe_s())),
         "s"},
        {"wall_s", wall, "s"},
        {"sim_events_per_s",
         ratio(events / static_cast<double>(walls.size()), wall), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ok_frac", ok, "ratio"},
    };
    const auto print = [](const char *what,
                          const std::vector<double> &values) {
        std::cerr << "\n  " << what << ":";
        for (const double t : values)
            std::cerr << " " << t;
    };
    std::cerr << "perfbench: " << walls.size() << " passes, "
              << rep.attempted << " attempted, " << rep.failed
              << " failed";
    print("set-up s", setups.work_s());
    print("set-up probe s", setups.probe_s());
    print("pass s", walls);
    print("pass probe s", passes.probe_s());
    std::cerr << "\n  host time: median set-up "
              << median(setups.work_s()) << " s, mean pass "
              << mean(walls) << " s\n";
}

/** Traced run: untraced and traced passes alternate; per-layer metrics. */
void
traced_run(Workload &w, const RunOptions &options, RunReport &rep)
{
    const PassResult s = w.setup();
    rep.attempted += s.attempted;
    rep.failed += s.failed;

    Tracer tracer;
    std::vector<std::vector<Span>> passes;
    std::vector<double> untraced_walls, traced_walls, coverage, tails,
        ns_per_event, scenario_ms;
    std::map<std::string, std::vector<double>> layer_ns;
    std::optional<Counters> counters;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    const auto untraced = [&] {
        const PassResult u = w.untraced_pass();
        untraced_walls.push_back(u.wall_s);
        rep.attempted += u.attempted;
        rep.failed += u.failed;
    };
    // Which pass of a pair goes first alternates, so neither side
    // always runs on caches the other warmed.
    bool untraced_first = true;
    do {
        if (untraced_first)
            untraced();
        PassResult t;
        {
            ScopedSpan pass(&tracer, "pass", 0);
            t = w.traced_pass(tracer, pass.id());
        }
        if (!untraced_first)
            untraced();
        untraced_first = !untraced_first;
        rep.attempted += t.attempted;
        rep.failed += t.failed;
        if (counters && *counters != t.counters)
            ++rep.failed;
        counters = t.counters;

        std::vector<Span> spans = tracer.take();
        const auto dur = duration_by_name(spans);
        const auto get = [&dur](const std::string &name) {
            const auto it = dur.find(name);
            return it == dur.end() ? 0.0
                                   : static_cast<double>(it->second);
        };
        double in_layers = 0.0;
        for (const auto &[metric, span] : layer_spans()) {
            layer_ns[metric].push_back(get(span));
            if (span != "alloc.replay")
                in_layers += get(span);
        }
        traced_walls.push_back(t.wall_s);
        coverage.push_back(
            ratio(in_layers * 1e-9, t.wall_s * t.workers));
        tails.push_back(pool_tail_s(t.completions_ns, t.workers));
        ns_per_event.push_back(
            ratio(get("runtime.run"), t.counters["runtime.events"]));
        for (const Span &sp : spans)
            if (sp.name == "scenario" || sp.name == "stream")
                scenario_ms.push_back(
                    static_cast<double>(sp.duration_ns()) * 1e-6);
        passes.push_back(std::move(spans));
    } while (now_ns() < deadline);

    Counters c = counters ? *counters : Counters{};
    for (const auto &[metric, span] : layer_spans())
        rep.metrics.push_back({metric, median(layer_ns[metric]), "ns"});
    for (const auto &[name, unit] : exact_counters())
        rep.metrics.push_back({name, c[name], unit});
    const Percentile p50 = nearest_rank(scenario_ms, 50);
    const Percentile p90 = nearest_rank(scenario_ms, 90);
    const double traced_wall = median(traced_walls);
    const double untraced_wall = median(untraced_walls);
    rep.metrics.insert(
        rep.metrics.end(),
        {
            {"runtime.ns_per_event", median(ns_per_event), "ns"},
            {"alloc.cache_hit_ratio",
             ratio(c["alloc.cache_hits"], c["alloc.allocs"]), "ratio"},
            {"sweep.cache_hit_ratio",
             ratio(c["sweep.cache_hits"],
                   c["sweep.cache_hits"] + c["sweep.cache_misses"]),
             "ratio"},
            {"sweep.pool_tail_s", median(tails), "s"},
            {"sweep.scenario_p50_ms", p50.value, "ms"},
            {"sweep.scenario_p90_ms", p90.value, "ms"},
            {"sweep.scenario_samples", static_cast<double>(p50.samples),
             "count"},
            {"trace.wall_s", traced_wall, "s"},
            {"trace.untraced_wall_s", untraced_wall, "s"},
            {"trace.overhead_s", traced_wall - untraced_wall, "s"},
            {"trace.coverage", median(coverage), "ratio"},
        });

    // Where the time went, by self time over every traced pass.
    std::map<std::string, std::int64_t> self;
    for (const auto &spans : passes)
        for (const auto &[name, ns] : self_time_by_name(spans))
            self[name] += ns;
    std::vector<std::pair<std::int64_t, std::string>> ranked;
    for (const auto &[name, ns] : self)
        ranked.emplace_back(ns, name);
    std::sort(ranked.rbegin(), ranked.rend());
    std::cerr << "perfbench: self time over " << passes.size()
              << " traced passes\n";
    for (const auto &[ns, name] : ranked)
        std::cerr << "  " << name << " " << ns / 1000000 << " ms\n";

    const fs::path dir = fs::path(options.work_dir) / "spans";
    fs::create_directories(dir);
    const fs::path file = dir / (options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl");
    write_spans(file.string(), passes);
    std::cerr << "perfbench: spans written to " << file.string() << "\n";
}

}  // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "zoo_train_serial", "serve_stream", "zoo_dp_pool_cache"};
    return names;
}

RunReport
run_benchmark(const RunOptions &options)
{
    const std::unique_ptr<Workload> w = make_workload(options);
    RunReport rep;
    rep.seed_note = w->seed_note();
    if (options.trace)
        traced_run(*w, options, rep);
    else
        untraced_run(*w, options, rep);
    rep.failed = std::min(rep.failed, rep.attempted);
    return rep;
}

}  // namespace perfbench
