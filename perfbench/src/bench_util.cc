#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory_resource>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

Percentile
nearest_rank(std::vector<double> values, double pct)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    p.value = values[rank - 1];
    return p;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::uint64_t
Tracer::next_id()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
}

void
Tracer::record(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
Tracer::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(spans_, {});
}

ScopedSpan::ScopedSpan(Tracer *tracer, const char *name,
                       std::uint64_t parent)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    span_.id = tracer_->next_id();
    span_.parent = parent;
    span_.name = name;
    span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_)
        return;
    span_.end_ns = now_ns();
    tracer_->record(std::move(span_));
}

std::map<std::uint64_t, std::int64_t>
self_times(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);

    std::map<std::uint64_t, std::int64_t> self;
    for (const Span &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            // Union of the children's intervals, clipped to the
            // parent: overlapping children (pool workers) count once.
            std::int64_t run_start = 0, run_end = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start_ns);
                b = std::min(b, s.end_ns);
                if (b <= a)
                    continue;
                if (open && a <= run_end) {
                    run_end = std::max(run_end, b);
                    continue;
                }
                if (open)
                    covered += run_end - run_start;
                run_start = a;
                run_end = b;
                open = true;
            }
            if (open)
                covered += run_end - run_start;
        }
        self[s.id] = s.duration_ns() - covered;
    }
    return self;
}

std::map<std::string, std::int64_t>
duration_by_name(const std::vector<Span> &spans)
{
    std::map<std::string, std::int64_t> total;
    for (const Span &s : spans)
        total[s.name] += s.duration_ns();
    return total;
}

std::map<std::string, std::int64_t>
self_time_by_name(const std::vector<Span> &spans)
{
    const auto self = self_times(spans);
    std::map<std::string, std::int64_t> total;
    for (const Span &s : spans)
        total[s.name] += self.at(s.id);
    return total;
}

std::optional<std::uint64_t>
parse_vm_hwm_kb(const std::string &status)
{
    std::istringstream in(status);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(6));
        std::uint64_t kb = 0;
        std::string unit;
        if (!(fields >> kb >> unit) || unit != "kB")
            return std::nullopt;
        return kb;
    }
    return std::nullopt;
}

double
peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::stringstream text;
    text << in.rdbuf();
    std::optional<std::uint64_t> kb = parse_vm_hwm_kb(text.str());
    if (!kb) {
        struct rusage usage {};
        if (getrusage(RUSAGE_SELF, &usage) == 0)
            kb = static_cast<std::uint64_t>(usage.ru_maxrss);
    }
    return kb ? static_cast<double>(*kb) / 1024.0 : 0.0;
}

namespace {

/** Arena bytes; one round of the probe needs a little over 4 MiB. */
constexpr std::size_t kProbeArenaBytes = std::size_t{6} << 20;
constexpr int kProbeRounds = 8;
constexpr int kProbeInserts = 60000;

/** Runs the probe's fixed work once in @p arena; @return its digest. */
std::uint64_t
probe_work(std::vector<std::byte> &arena)
{
    std::uint64_t x = 12345, digest = 0;
    for (int round = 0; round < kProbeRounds; ++round) {
        // A null upstream makes an arena overflow throw instead of
        // reaching the shared heap.
        std::pmr::monotonic_buffer_resource pool(
            arena.data(), arena.size(),
            std::pmr::null_memory_resource());
        std::pmr::unordered_map<std::uint64_t, std::uint64_t> hash(
            &pool);
        std::pmr::map<std::uint64_t, std::uint64_t> tree(&pool);
        std::pmr::vector<std::uint64_t> values(&pool);
        for (int i = 0; i < kProbeInserts; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            hash[x >> 44] += x;
            if (i % 4 == 0)
                tree[x >> 40] = x;
            if (i % 8 == 0)
                hash.erase(x >> 45);
            values.push_back(x);
        }
        std::sort(values.begin(), values.end());
        for (const auto &[key, value] : tree)
            digest += key ^ value;
        digest += hash.size() + values[values.size() / 2];
    }
    return digest;
}

}  // namespace

SpeedProbe::SpeedProbe(int threads)
    : arenas_(static_cast<std::size_t>(std::max(threads, 1)),
              std::vector<std::byte>(kProbeArenaBytes)),
      digests_(arenas_.size())
{
}

double
SpeedProbe::time_s()
{
    const std::int64_t start = now_ns();
    std::vector<std::thread> others;
    for (std::size_t t = 1; t < arenas_.size(); ++t)
        others.emplace_back(
            [this, t] { digests_[t] = probe_work(arenas_[t]); });
    digests_[0] = probe_work(arenas_[0]);
    for (auto &thread : others)
        thread.join();
    const std::int64_t end = now_ns();
    digest_ = std::accumulate(digests_.begin(), digests_.end(),
                              std::uint64_t{0});
    return static_cast<double>(end - start) * 1e-9;
}

double
at_reference_speed(double host_s, double probe_s)
{
    return probe_s > 0 ? host_s * kProbeReferenceS / probe_s : 0.0;
}

std::string
json_string(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

namespace {

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::string
result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += json_string(metrics[i].name) +
               ": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}}";
}

}  // namespace perfbench
