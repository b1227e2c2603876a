/**
 * @file
 * Metric table, statistics, seeded stream, span tracer, result
 * digest and host facts for the benchmark (see bench.h).
 */

#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "tensor/simd.h"

namespace perfbench {

namespace {

/** JSON-safe number: every digit, non-finite clamped to a sentinel
 * (a latency that missed every limit reads as "very large"). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = v > 0 ? 1e12 : -1e12;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

void
Metrics::print() const
{
    for (const Entry &e : entries_)
        std::printf("  %-40s %16.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

std::string
Metrics::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        out += (i ? ", " : "") + quoted(e.name) + ": {\"value\": " +
               number(e.value) + ", \"unit\": " + quoted(e.unit) +
               "}";
    }
    return out + "}";
}

void
Status::mismatch(const std::string &what)
{
    ++failed;
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                 what.c_str());
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (!std::isfinite(v[hi]))
        return frac > 0.0 ? v[hi] : v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t
Rng::next()
{
    s_ += 0x9E3779B97F4A7C15ull;
    return mix64(s_);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

int
Rng::uniformInt(int lo, int hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(next() % span);
}

Tracer::Tracer(bool on) : on_(on), origin_(Clock::now()) {}

double
Tracer::now() const
{
    return seconds(origin_, Clock::now());
}

double
Tracer::toTracer(Clock::time_point t) const
{
    return seconds(origin_, t);
}

int
Tracer::begin(const std::string &name, int parent,
              std::uint64_t request)
{
    if (!on_)
        return -1;
    const double t = now();
    return add(name, t, t, parent, request);
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].t1 = now();
}

int
Tracer::add(const std::string &name, double t0, double t1, int parent,
            std::uint64_t request)
{
    if (!on_)
        return -1;
    spans_.push_back({name, t0, t1, parent, request});
    return static_cast<int>(spans_.size() - 1);
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"request\": %llu}}",
                     i ? "," : "", quoted(s.name).c_str(),
                     static_cast<unsigned long long>(s.request % 64),
                     s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent,
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

namespace {

/** Streaming 64-bit hash over raw bytes (8 bytes per step). */
class Hasher
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        while (n >= 8) {
            std::uint64_t w;
            std::memcpy(&w, c, 8);
            h_ = mix64(h_ ^ w);
            c += 8;
            n -= 8;
        }
        std::uint64_t tail = n;
        std::memcpy(&tail, c, n);
        h_ = mix64(h_ ^ tail ^ (static_cast<std::uint64_t>(n) << 56));
    }
    void i64(std::int64_t v) { bytes(&v, sizeof v); }
    void ops(const sofa::OpCounter &o)
    {
        i64(o.adds());
        i64(o.cmps());
        i64(o.shifts());
        i64(o.muls());
        i64(o.divs());
        i64(o.exps());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0x50FA0B3Cull;
};

} // namespace

std::uint64_t
digest(const sofa::EngineResult &r)
{
    Hasher h;
    h.i64(static_cast<std::int64_t>(r.heads.size()));
    for (const sofa::HeadResult &hr : r.heads) {
        h.i64(hr.batch);
        h.i64(hr.head);
        const auto &out = hr.result.output.data();
        h.bytes(out.data(), out.size() * sizeof(float));
        for (const sofa::Selection &s : hr.result.selections) {
            h.i64(static_cast<std::int64_t>(s.size()));
            h.bytes(s.data(), s.size() * sizeof(int));
        }
        h.i64(hr.keysCached);
        h.i64(hr.sufaTiles);
    }
    h.ops(r.predictionOps);
    h.ops(r.sortOps);
    h.ops(r.formalOps);
    h.i64(r.keysGenerated);
    h.i64(r.keysCached);
    h.i64(r.maxViolations);
    h.bytes(&r.meanMassRecall, sizeof(double));
    return h.value();
}

void
reportLatency(const std::vector<double> &all,
              const std::vector<double> &decode, Metrics &m,
              const Tracer &tr)
{
    const std::pair<const char *, double> rows[] = {
        {"p50_ms", 1e3 * median(all)},
        {"p90_ms", 1e3 * percentile(all, 90)},
        {"p99_ms", 1e3 * percentile(all, 99)},
        {"decode_p99_ms", 1e3 * percentile(decode, 99)},
    };
    if (!tr.on())
        std::printf("latency over %zu requests (per-layer metrics; not in "
                    "the untraced result line):\n",
                    all.size());
    for (const auto &[name, value] : rows) {
        if (tr.on())
            m.set(name, value, "ms");
        else
            std::printf("  %-40s %16.6g ms\n", name, value);
    }
}

int
hostThreads()
{
    // nproc: the CPUs this process may run on, not every online one.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? static_cast<int>(n) : 1;
}

const char *
simdLevelName()
{
    return sofa::simd::levelName(sofa::simd::active());
}

double
peakRssMb()
{
    // VmHWM follows resetPeakRss(); ru_maxrss never resets.
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kib = -1.0;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %lf", &kib) == 1)
                break;
        std::fclose(f);
        if (kib > 0)
            return kib / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
resetPeakRss()
{
    if (FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

} // namespace perfbench
