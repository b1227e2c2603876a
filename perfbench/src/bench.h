/**
 * @file
 * Shared pieces of the serving-stack benchmark: command-line options,
 * the metric table printed as the run's result, summary statistics,
 * the in-memory span tracer (Chrome trace-event JSON on exit), the
 * bit-exactness digest of an EngineResult, host facts, and the
 * per-layer probes (tensor kernels, stage-stepped engine runs) the
 * workloads share.
 *
 * Spans are recorded only from this benchmark's code, around its
 * calls into the library's public entry points; nothing inside the
 * library is instrumented.
 *
 * Units: times in seconds unless a name says otherwise; metric units
 * are printed with every value.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Chrome trace-event JSON written at exit (trace runs only). */
    std::string traceOut;
};

/** Ordered metric table: printed as a text table and as the JSON
 * `metrics` object of the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    void print() const;
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Attempted/failed operation tally plus the correctness verdict. */
struct Status
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    bool correct = true;
    /** Record a correctness failure (counted as a failed op). */
    void mismatch(const std::string &what);
};

/** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double sum(const std::vector<double> &v);

/** splitmix64 finalizer and a small seeded stream built on it. */
std::uint64_t mix64(std::uint64_t x);

class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [lo, hi]. */
    int uniformInt(int lo, int hi);

  private:
    std::uint64_t s_;
};

/** One recorded span. Times are seconds from the tracer's origin. */
struct Span
{
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;            ///< index of the causing span
    std::uint64_t request = 0;  ///< request / prompt-run identifier
};

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool on);
    bool on() const { return on_; }
    double now() const;
    /** Open a span now; returns its index (-1 when off). */
    int begin(const std::string &name, int parent,
              std::uint64_t request);
    void end(int id);
    /** Record a span with explicit bounds (seconds from origin). */
    int add(const std::string &name, double t0, double t1, int parent,
            std::uint64_t request);
    double toTracer(Clock::time_point t) const;
    /** Chrome trace-event JSON ("X" events, microseconds). */
    bool write(const std::string &path) const;
    std::size_t size() const { return spans_.size(); }

  private:
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** 64-bit digest of every output bit of a result: per-head outputs,
 * selections, op counters, key counts and violations. */
std::uint64_t digest(const sofa::EngineResult &r);

int hostThreads();
const char *simdLevelName();
/** Peak resident set of this process since start or the last
 * resetPeakRss(), in MiB. */
double peakRssMb();
/** Restart the peak at the current resident set (Linux
 * /proc/self/clear_refs); a no-op where that is not available. */
void resetPeakRss();

/** The engine stages the benchmark attributes time to, in order. */
inline constexpr std::array<const char *, 4> kStages = {
    "dlzs_predict", "sads_topk", "kv_generate", "sufa_attention"};

/**
 * Per-layer accumulator for engine runs: wall and per-stage seconds
 * from stage-stepped runs, plus the exact counts of every result.
 */
struct EngineProfile
{
    std::vector<double> runSeconds;
    std::vector<double> leftoverSeconds;
    std::array<std::vector<double>, kStages.size()> stageSeconds;
    /** Σ stage self time exceeded run wall (must stay 0). */
    std::int64_t stageSumViolations = 0;

    double dlzsOps = 0, sadsCmp = 0, sufaOps = 0;
    double kvKeys = 0, kvCached = 0, violations = 0, queryRows = 0;
    std::int64_t results = 0;

    /** Add one result's exact counts (tasks give shapes). */
    void addCounts(const sofa::EngineResult &r,
                   const std::vector<sofa::HeadTask> &tasks);
    /** core.* and engine.run/leftover metrics. */
    void report(Metrics &m) const;
};

/**
 * Run @p tasks stage by stage through an EngineRun, with one
 * `engine.run` span under @p parent and one span per stage (keyed by
 * nextStageName); wall and stage times go to @p prof when non-null.
 */
sofa::EngineResult steppedRun(const sofa::Engine &engine,
                              std::vector<sofa::HeadTask> tasks,
                              Tracer &tr, int parent,
                              std::uint64_t request,
                              EngineProfile *prof);

/** The head tasks of a whole ModelWorkload (as Engine::run builds). */
std::vector<sofa::HeadTask> gridTasks(const sofa::ModelWorkload &mw,
                                      bool cold = false);

/** Shapes the tensor-kernel probes time, taken from a workload. */
struct KernelShapes
{
    int headDim = 64;
    /** Context lengths (S) of the workload's runs. */
    std::vector<int> contexts;
    /** Query rows (T) paired with contexts for matmulNT. */
    std::vector<int> queryRows;
    int sorterInputs = 16;
};

/** tensor.* metrics: time per call on the given shapes, computed
 * bytes per call, matmulNT GFLOP/s. Spans under @p parent. */
void probeKernels(const KernelShapes &shapes, std::uint64_t seed,
                  Metrics &m, Tracer &tr, int parent);

/**
 * Scheduler-layer metrics (serve.* and bench.gen_late_ms); a workload
 * without a scheduler reports the zero defaults.
 */
struct ServeLayer
{
    double queueP50Ms = 0, queueP99Ms = 0;
    double serviceP50Ms = 0, serviceP99Ms = 0;
    double leftoverMs = 0;
    double batchRequests = 0, maxQueueDepth = 0;
    double shed = 0, failed = 0, timedOut = 0, chunkRuns = 0;
    double evictions = 0, coldRuns = 0, coldFrac = 0;
    double genLateMs = 0;
    void report(Metrics &m) const;
};

/**
 * The latency percentiles p50_ms, p90_ms, p99_ms of @p all and
 * decode_p99_ms of @p decode (seconds in). Traced runs report them as
 * per-layer metrics; untraced runs print them beside the result line
 * but leave them out of it, because their run-to-run spread on a host
 * with CPU steal exceeds any bound the result line may carry.
 */
void reportLatency(const std::vector<double> &all,
                   const std::vector<double> &decode, Metrics &m,
                   const Tracer &tr);

/** Workload entry points. */
void runPrefillLong(const Options &o, Metrics &m, Status &st,
                    Tracer &tr);
void runServing(const Options &o, Metrics &m, Status &st, Tracer &tr);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
