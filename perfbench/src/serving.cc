/**
 * @file
 * The serving workloads, driven through Scheduler::submit and its
 * futures from one open-loop generator thread:
 *
 *  - decode_open: Poisson decode traffic (75% plain decode,
 *    newTokens 1; 25% speculative verify, newTokens 4; pastLen in
 *    [64, 512]; H=4) through the default single-EngineBackend
 *    scheduler, FIFO, with a KV pool too large to ever evict;
 *  - mixed_pressure: four tenants under DRR, every fifth request a
 *    prefill (context 128-512), prefill chunking on, and a KV pool
 *    smaller than the working set, so it evicts and recomputes cold.
 *
 * A run has up to two phases. The fixed-rate phase offers the
 * workload's fixed rate; its latencies give p50/p90/p99, goodput and
 * the serve.* layer. The ladder phase (untraced runs only) probes
 * rungs of a fixed geometric ladder (7% steps) by bisection, probing a
 * missed rung twice, and reports the highest rung whose p99 meets the
 * latency limit with no growing backlog as max_rps. The send schedule
 * never depends on completions, and every request is timed from its
 * due time.
 *
 * Correctness gate, after the timed phases: every completed request
 * is replayed standalone (regenerated from its spec, run through
 * Engine::run on a one-thread pool — cold decodes with pastLen 0,
 * chunked prefills chunk by chunk, as the scheduler defines them) and
 * must be bit-identical to what the scheduler returned. Traced runs
 * also replay a sample sequentially on the nproc pool with spans
 * around generation and each stage: the model/engine/core attribution
 * of the serving workloads comes from that replay.
 */

#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/threadpool.h"
#include "core/sads.h"
#include "model/model_workload.h"
#include "serve/scheduler.h"

namespace perfbench {

using sofa::Engine;
using sofa::EngineConfig;
using sofa::EngineResult;
using sofa::HeadTask;
using sofa::ModelWorkload;
using sofa::ThreadPool;
using sofa::serve::Outcome;
using sofa::serve::Request;
using sofa::serve::RequestResult;
using sofa::serve::Scheduler;
using sofa::serve::SchedulerConfig;
using sofa::serve::SchedulerStats;
using sofa::serve::SchedulingPolicy;

namespace {

/** One serving workload's fixed definition. */
struct ServingDef
{
    const char *name;
    double rate;         ///< fixed offered rate, requests/s
    double limitSeconds; ///< p99 latency limit (from due time)
    double prefillFrac;  ///< share of prefill requests
    int prefillMin, prefillMax; ///< prefill context range
    int chunkRows;       ///< SchedulerConfig.prefillChunkRows
    std::int64_t kvPages; ///< KV pool capacity (16-token pages)
    SchedulingPolicy policy;
    int tenants;
    double fixedShare;   ///< of --seconds; the rest is the ladder
    int ladderSpan;      ///< rungs bisected above the offered rate
    int ladderSlots;     ///< probe lengths the ladder time holds
};

// Offered rates: ~35% (decode_open) and ~45-55% (mixed_pressure) of the
// capacity max_rps measured on a 4-vCPU AVX2 host; nearer 70% the
// run-to-run spread under host CPU steal was several times any bound.
// mixed_pressure's 320 pages of 16 tokens evict and run decodes cold at
// its rate but shed nothing (160 pages shed).
// The ladder spans (32 and 16 rungs, 8.4x and 2.9x the offered rate)
// bisect in 5 and 4 probes; their slots add about two retried misses
// and one probe length for drains.
constexpr ServingDef kDecodeOpen{
    "decode_open", 40.0, 0.250, 0.0, 0, 0, 0, std::int64_t{1} << 22,
    SchedulingPolicy::FIFO, 1, 0.25, 32, 8};
constexpr ServingDef kMixedPressure{
    "mixed_pressure", 32.0, 1.000, 0.2, 128, 512, 128, 320,
    SchedulingPolicy::DRR, 4, 0.25, 16, 7};

constexpr int kHeads = 4;
constexpr int kPastMin = 64, kPastMax = 512;
constexpr int kSetupReps = 9; ///< setup_s is the median of these
constexpr int kWarmRequests = 8;
constexpr double kLadderBase = 10.0; ///< rung k offers base * step^k
constexpr double kLadderStep = 1.07;
constexpr std::size_t kReplaySample = 160; ///< traced sequential replay
constexpr std::size_t kScalingSample = 24; ///< of those, also at 1 thread
constexpr std::size_t kRateBlocks = 16; ///< tok_s_1t: median over blocks

/**
 * Arrival offsets of @p n requests at @p rate: a Poisson process
 * conditioned on its count in each one-second window. Each window
 * holds its expected count (fractions carried over) at uniform random
 * offsets within it, which is how a Poisson process places a given
 * count. Bursts within a second stay Poisson; the drift of the count
 * over seconds, which near capacity turns the backlog into a random
 * walk that differs from seed to seed, is left out.
 */
std::vector<double>
drawArrivals(Rng &rng, std::size_t n, double rate)
{
    constexpr double kWindow = 1.0;
    const double carry = rng.uniform();
    std::vector<double> t;
    t.reserve(n);
    for (int w = 0; t.size() < n; ++w) {
        const std::size_t upto = std::min(
            n, static_cast<std::size_t>(
                   std::floor(rate * kWindow * (w + 1) + carry)));
        const std::size_t from = t.size();
        while (t.size() < upto)
            t.push_back(kWindow * (w + rng.uniform()));
        std::sort(t.begin() + static_cast<std::ptrdiff_t>(from), t.end());
    }
    return t;
}

/**
 * A trace of @p n requests arriving at @p rate (drawArrivals). The mix
 * is stratified rather than drawn per request, so seeds differ in
 * arrival times, tenants and request seeds but not in how much work
 * they offer: every 1/prefillFrac-th request is a prefill, every
 * fourth decode a speculative verify, and context lengths walk a
 * seeded golden-ratio sequence over their range.
 */
std::vector<Request>
drawTrace(const ServingDef &d, std::uint64_t seed, std::uint64_t first_id,
          std::size_t n, double rate)
{
    constexpr double kGolden = 0.6180339887498949;
    Rng rng(mix64(seed ^ first_id));
    double u_prefill = rng.uniform(), u_decode = rng.uniform();
    const double phase = rng.uniform();
    const std::vector<double> arrivals = drawArrivals(rng, n, rate);
    std::vector<Request> trace;
    std::size_t decodes = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Request r;
        r.id = first_id + i;
        r.arrival = arrivals[i];
        r.deadlineSeconds = -1.0; // no deadline unless a phase sets one
        r.tenant = d.tenants > 1 ? rng.uniformInt(0, d.tenants - 1) : 0;
        r.work.batch = 1;
        r.work.heads = kHeads;
        r.work.seed = mix64(seed ^ mix64(r.id));
        const double k = static_cast<double>(i) + phase;
        if (std::floor((k + 1) * d.prefillFrac) > std::floor(k * d.prefillFrac)) {
            u_prefill = std::fmod(u_prefill + kGolden, 1.0);
            const int len = d.prefillMin +
                            static_cast<int>(u_prefill * (d.prefillMax -
                                                          d.prefillMin + 1));
            r.work.seq = len;
            r.work.queries = len;
        } else {
            u_decode = std::fmod(u_decode + kGolden, 1.0);
            r.work.pastLen =
                kPastMin +
                static_cast<int>(u_decode * (kPastMax - kPastMin + 1));
            r.work.newTokens = decodes++ % 4 == 3 ? 4 : 1;
        }
        trace.push_back(r);
    }
    return trace;
}

SchedulerConfig
schedulerConfig(const ServingDef &d, ThreadPool *pool)
{
    SchedulerConfig cfg;
    cfg.engine.computeQuality = false;
    cfg.engine.pool = pool;
    cfg.policy = d.policy;
    cfg.prefillChunkRows = d.chunkRows;
    cfg.kvPool.pages = d.kvPages;
    cfg.faultsFromEnv = false; // hermetic: no injected faults
    return cfg;
}

/** What the benchmark keeps of one request's result. */
struct Record
{
    Outcome outcome = Outcome::Failed;
    bool decode = false;
    bool kvCold = false;
    int chunks = 1;
    double late = 0.0;      ///< submit - due
    double submitted = 0.0; ///< seconds from phase start
    double queue = 0.0, service = 0.0, total = 0.0;
    std::uint64_t digest = 0;

    bool completed() const { return outcome == Outcome::Completed; }
    /** Latency from the due time; missing requests never meet it. */
    double latency() const
    {
        return completed() ? late + total
                           : std::numeric_limits<double>::infinity();
    }
};

/**
 * Drains futures in submission order on its own thread, digesting
 * each result and dropping it, so large prefill results do not pile
 * up while the generator keeps sending.
 */
class Collector
{
  public:
    explicit Collector(std::vector<Record> &out)
        : out_(out), thread_([this] { loop(); })
    {
    }
    ~Collector() { finish(); }
    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void push(std::size_t idx, std::future<RequestResult> f)
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            queue_.emplace_back(idx, std::move(f));
        }
        cv_.notify_one();
    }

    void finish()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            closing_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void loop()
    {
        for (;;) {
            std::pair<std::size_t, std::future<RequestResult>> item;
            {
                std::unique_lock<std::mutex> lk(m_);
                cv_.wait(lk,
                         [this] { return closing_ || !queue_.empty(); });
                if (queue_.empty())
                    return;
                item = std::move(queue_.front());
                queue_.pop_front();
            }
            const RequestResult rr = item.second.get();
            Record &rec = out_[item.first];
            rec.outcome = rr.outcome;
            rec.decode = rr.kind == sofa::serve::RequestKind::Decode;
            rec.kvCold = rr.kvCold;
            rec.chunks = rr.chunks;
            rec.queue = rr.queueSeconds;
            rec.service = rr.serviceSeconds;
            rec.total = rr.totalSeconds;
            if (rec.completed())
                rec.digest = digest(rr.engine);
        }
    }

    std::vector<Record> &out_;
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<std::pair<std::size_t, std::future<RequestResult>>>
        queue_;
    bool closing_ = false;
    std::thread thread_; // last: starts after the members it uses
};

/** One phase: requests sent on schedule, their records. */
struct Phase
{
    std::string name;
    std::vector<Request> requests;
    std::vector<Record> records;
    double window = 0.0; ///< last due offset (the sending window)
    double start = 0.0;  ///< phase start, tracer time

    std::vector<double> latencies(bool decode_only = false) const
    {
        std::vector<double> v;
        for (const Record &r : records)
            if (!decode_only || r.decode)
                v.push_back(r.latency());
        return v;
    }
    std::size_t completed() const
    {
        std::size_t n = 0;
        for (const Record &r : records)
            n += r.completed() ? 1 : 0;
        return n;
    }
    /** Mean requests outstanding over [t0, t1) of the phase clock. */
    double meanBacklog(double t0, double t1) const
    {
        constexpr int kSamples = 25;
        double acc = 0.0;
        for (int k = 0; k < kSamples; ++k) {
            const double t = t0 + (t1 - t0) * (k + 0.5) / kSamples;
            for (const Record &r : records)
                acc += r.submitted <= t && r.submitted + r.total > t;
        }
        return acc / kSamples;
    }
    /** A growing backlog: the second half of the sending window holds
     * on average more than @p slack requests more than the first. */
    bool backlogGrows(double slack) const
    {
        return meanBacklog(window / 2, window) >
               meanBacklog(0.0, window / 2) + slack;
    }
};

/** Send @p p.requests open loop, each at its arrival offset. */
void
runPhase(Scheduler &sched, Phase &p, Tracer &tr)
{
    p.records.assign(p.requests.size(), Record{});
    const int span = tr.begin("phase." + p.name, -1, 0);
    {
        Collector col(p.records);
        const Clock::time_point start = Clock::now();
        p.start = tr.toTracer(start);
        for (std::size_t i = 0; i < p.requests.size(); ++i) {
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                p.requests[i].arrival));
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            p.records[i].late = seconds(due, sent);
            p.records[i].submitted = seconds(start, sent);
            col.push(i, sched.submit(p.requests[i]));
        }
        col.finish();
    }
    tr.end(span);
    p.window = p.requests.empty() ? 0.0 : p.requests.back().arrival;
    // Scheduler-side spans of each request, from its result: due ->
    // completion, split into generator lateness, queue and service.
    for (std::size_t i = 0; tr.on() && i < p.records.size(); ++i) {
        const Record &r = p.records[i];
        const std::uint64_t id = p.requests[i].id;
        const double sent = p.start + r.submitted;
        const int root = tr.add("request", sent - r.late,
                                sent + r.total, span, id);
        tr.add("bench.gen_late", sent - r.late, sent, root, id);
        tr.add("serve.queue", sent, sent + r.queue, root, id);
        tr.add("serve.service", sent + r.queue, sent + r.total, root, id);
    }
}

std::size_t
count(const Phase &p, Outcome o)
{
    std::size_t n = 0;
    for (const Record &r : p.records)
        n += r.outcome == o ? 1 : 0;
    return n;
}

void
printPhase(const Phase &p)
{
    std::printf("phase %-22s sent %6zu  succeeded %6zu  failed %zu "
                "(shed %zu, timed out %zu, failed %zu)\n",
                p.name.c_str(), p.records.size(), p.completed(),
                p.records.size() - p.completed(),
                count(p, Outcome::Shed), count(p, Outcome::TimedOut),
                count(p, Outcome::Failed));
}

/** Backlog growth a phase may show between the halves of its sending
 * window: one full batch round of the scheduler (lanes x headBudget
 * head tasks, in requests). */
double
backlogSlack(const SchedulerConfig &cfg)
{
    return static_cast<double>(cfg.lanes * cfg.headBudget / kHeads);
}

bool
meetsLimit(const Phase &p, double limit, double slack)
{
    return percentile(p.latencies(), 99) <= limit &&
           !p.backlogGrows(slack);
}

/** Runs one task list: Engine::run, or a traced stepped run. */
using Runner =
    std::function<EngineResult(const std::vector<HeadTask> &)>;

/** Standalone reference of one scheduler request (see @file) over
 * its regenerated workload @p mw. */
EngineResult
referenceRun(const Runner &run, const ModelWorkload &mw,
             const Record &rec, int chunk_rows)
{
    const int rows = mw.spec.queryRows();
    if (mw.spec.isDecode() || chunk_rows <= 0 || rows <= chunk_rows)
        return run(gridTasks(mw, rec.kvCold));
    std::vector<sofa::HeadResult> heads;
    for (int r0 = 0; r0 < rows; r0 += chunk_rows) {
        const int r1 = std::min(rows, r0 + chunk_rows);
        std::vector<sofa::AttentionWorkload> slices;
        for (int h = 0; h < mw.heads(); ++h)
            slices.push_back(sofa::serve::sliceQueryRows(mw.head(0, h),
                                                         r0, r1));
        std::vector<HeadTask> tasks;
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &slices[static_cast<std::size_t>(h)];
            t.head = h;
            tasks.push_back(t);
        }
        EngineResult part = run(tasks);
        for (sofa::HeadResult &hr : part.heads)
            heads.push_back(std::move(hr));
    }
    return sofa::aggregateHeadResults(std::move(heads));
}

/**
 * Replay every completed request standalone on one-thread engines, one
 * per host thread, and compare digests. Returns the serving workloads'
 * tok_s_1t: the requests, in order, fall into kRateBlocks blocks, and
 * the median over blocks of Σ query tokens / Σ engine seconds, so a
 * host stall during a few of them does not set the figure.
 */
double
verifyAll(const ServingDef &d, const std::vector<const Phase *> &phases,
          Status &st)
{
    struct Item
    {
        const Request *req;
        const Record *rec;
    };
    std::vector<Item> items;
    for (const Phase *p : phases)
        for (std::size_t i = 0; i < p->records.size(); ++i)
            if (p->records[i].completed())
                items.push_back({&p->requests[i], &p->records[i]});

    ThreadPool pool1(1);
    EngineConfig cfg;
    cfg.computeQuality = false;
    cfg.pool = &pool1;
    const Engine eng(cfg);
    const Runner run = [&eng](const std::vector<HeadTask> &t) {
        return eng.run(t);
    };
    // Single participant everywhere: each worker is one thread.
    ThreadPool::ScopedSerial serial;
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::vector<double> engine_s(items.size(), 0.0); // one writer each
    std::vector<std::string> bad;
    auto worker = [&] {
        for (std::size_t i = next++; i < items.size(); i = next++) {
            const Item &it = items[i];
            std::string error;
            try {
                const ModelWorkload mw =
                    sofa::generateModelWorkload(it.req->work);
                const Clock::time_point t0 = Clock::now();
                const EngineResult ref =
                    referenceRun(run, mw, *it.rec, d.chunkRows);
                engine_s[i] = seconds(t0, Clock::now());
                if (digest(ref) != it.rec->digest)
                    error = "differs from its standalone run";
            } catch (const std::exception &e) {
                error = std::string("standalone run threw: ") + e.what();
            }
            if (!error.empty()) {
                std::lock_guard<std::mutex> lk(m);
                bad.push_back("request " + std::to_string(it.req->id) +
                              " " + error);
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < hostThreads(); ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    st.attempted += static_cast<std::int64_t>(items.size());
    for (const std::string &b : bad)
        st.mismatch(b);
    std::printf("verified %zu completed requests bit-identical to "
                "standalone runs (%zu mismatches)\n",
                items.size(), bad.size());
    std::vector<double> rates;
    for (std::size_t b = 0; b < kRateBlocks; ++b) {
        double tok = 0.0, sec = 0.0;
        for (std::size_t i = b * items.size() / kRateBlocks;
             i < (b + 1) * items.size() / kRateBlocks; ++i) {
            tok += items[i].req->work.queryRows();
            sec += engine_s[i];
        }
        if (sec > 0)
            rates.push_back(tok / sec);
    }
    return rates.empty() ? 0.0 : median(rates);
}

} // namespace

void
ServeLayer::report(Metrics &m) const
{
    m.set("serve.queue.p50_ms", queueP50Ms, "ms");
    m.set("serve.queue.p99_ms", queueP99Ms, "ms");
    m.set("serve.service.p50_ms", serviceP50Ms, "ms");
    m.set("serve.service.p99_ms", serviceP99Ms, "ms");
    m.set("serve.leftover.ms", leftoverMs, "ms");
    m.set("serve.batch_requests", batchRequests, "req/batch");
    m.set("serve.max_queue_depth", maxQueueDepth, "count");
    m.set("serve.shed", shed, "count");
    m.set("serve.failed", failed, "count");
    m.set("serve.timed_out", timedOut, "count");
    m.set("serve.chunk_runs", chunkRuns, "count");
    m.set("serve.kvpool.evictions", evictions, "count");
    m.set("serve.kvpool.cold_runs", coldRuns, "count");
    m.set("serve.kvpool.cold_frac", coldFrac, "fraction");
    m.set("bench.gen_late_ms", genLateMs, "ms");
}

void
runServing(const Options &o, Metrics &m, Status &st, Tracer &tr)
{
    const ServingDef &d =
        o.workload == kDecodeOpen.name ? kDecodeOpen : kMixedPressure;
    const int threads = hostThreads();
    const double fixed_s =
        tr.on() ? o.seconds : d.fixedShare * o.seconds;

    // Set-up: pool, scheduler, trace specs, warm-up requests.
    std::vector<double> setup_s;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<Scheduler> sched;
    Phase fixed;
    fixed.name = std::string(d.name) + ".fixed";
    for (int r = 0; r < kSetupReps; ++r) {
        sched.reset();
        pool.reset();
        const Clock::time_point t0 = Clock::now();
        pool = std::make_unique<ThreadPool>(threads);
        sched = std::make_unique<Scheduler>(
            schedulerConfig(d, pool.get()));
        const std::size_t n = static_cast<std::size_t>(
            std::ceil(d.rate * fixed_s));
        fixed.requests = drawTrace(d, o.seed, 1, n, d.rate);
        // Warm-up: same-shape decodes, closed loop, one at a time.
        for (int i = 0; i < kWarmRequests; ++i) {
            Request w;
            w.id = (std::uint64_t{1} << 40) * static_cast<std::uint64_t>(r + 1) +
                   static_cast<std::uint64_t>(i);
            w.work.heads = kHeads;
            w.work.pastLen = (kPastMin + kPastMax) / 2;
            w.work.newTokens = 1;
            w.work.seed = mix64(o.seed ^ w.id);
            if (sched->submit(w).get().outcome != Outcome::Completed)
                st.mismatch("warm-up request did not complete");
        }
        setup_s.push_back(seconds(t0, Clock::now()));
    }
    const double slack = backlogSlack(sched->config());

    // peak_rss_mb is the peak of the serving phases: not set-up's
    // discarded schedulers nor the correctness replay.
    resetPeakRss();
    const SchedulerStats s0 = sched->stats();
    runPhase(*sched, fixed, tr);
    const SchedulerStats s1 = sched->stats();
    printPhase(fixed);

    // Ladder: bisection over fixed rungs above the offered rate.
    std::vector<Phase> rungs;
    double max_rps = 0.0;
    if (!tr.on()) {
        // Probes drain within one latency limit (their requests carry
        // that deadline); one slot of the time covers drains.
        const double rung_s =
            (1.0 - d.fixedShare) * o.seconds / d.ladderSlots;
        auto rate_of = [](int k) {
            return kLadderBase * std::pow(kLadderStep, k);
        };
        const int k0 = static_cast<int>(
            std::floor(std::log(d.rate / kLadderBase) /
                       std::log(kLadderStep)));
        std::uint64_t next_id = std::uint64_t{1} << 32;
        auto probe = [&](int k, const char *suffix) {
            const double rate = rate_of(k);
            Phase p;
            p.name = std::string(d.name) + ".rung" + std::to_string(k) +
                     suffix;
            const std::size_t n = static_cast<std::size_t>(
                std::ceil(rate * rung_s));
            p.requests = drawTrace(d, o.seed, next_id, n, rate);
            next_id += n;
            for (Request &r : p.requests)
                r.deadlineSeconds = d.limitSeconds; // overload drains
            runPhase(*sched, p, tr);
            const bool ok = meetsLimit(p, d.limitSeconds, slack);
            std::printf("  rung %2d: %7.2f req/s  p99 %8.2f ms  backlog "
                        "%5.1f -> %5.1f  %s\n",
                        k, rate, 1e3 * percentile(p.latencies(), 99),
                        p.meanBacklog(0.0, p.window / 2),
                        p.meanBacklog(p.window / 2, p.window),
                        ok ? "meets" : "misses");
            rungs.push_back(std::move(p));
            return ok;
        };
        // A rung misses only when a second probe at it misses too, so
        // a host stall of a few seconds does not end the search below
        // the program's capacity.
        auto meets = [&](int k) {
            return probe(k, "") || probe(k, ".retry");
        };
        int lo = k0, hi = k0 + d.ladderSpan;
        if (!meetsLimit(fixed, d.limitSeconds, slack)) {
            // The offered rate itself misses: walk down instead.
            hi = k0;
            lo = k0 - 1;
            while (lo > 0 && !meets(lo)) {
                hi = lo;
                --lo;
            }
        }
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            (meets(mid) ? lo : hi) = mid;
        }
        max_rps = rate_of(lo);
        for (const Phase &p : rungs)
            printPhase(p);
    }

    const double peak_mb = peakRssMb();

    // Correctness gate: every completed request, standalone.
    std::vector<const Phase *> all{&fixed};
    for (const Phase &p : rungs)
        all.push_back(&p);
    const double tok_s_1t = verifyAll(d, all, st);

    // Fixed-phase requests that did not complete are failed ops; the
    // ladder's overload rungs time out by design and are not.
    st.attempted += static_cast<std::int64_t>(fixed.records.size());
    st.failed += static_cast<std::int64_t>(fixed.records.size() -
                                           fixed.completed());

    const std::vector<double> lat = fixed.latencies();
    if (!tr.on()) {
        double tokens = 0.0, last = 0.0;
        std::size_t within = 0;
        for (std::size_t i = 0; i < fixed.records.size(); ++i) {
            const Record &r = fixed.records[i];
            if (!r.completed())
                continue;
            tokens += fixed.requests[i].work.queryRows();
            last = std::max(last, r.submitted + r.total);
            within += r.latency() <= d.limitSeconds ? 1 : 0;
        }
        m.set("tok_s", tokens / last, "tok/s");
        m.set("tok_s_1t", tok_s_1t, "tok/s");
        m.set("goodput_rps", static_cast<double>(within) / fixed.window,
              "req/s");
        m.set("max_rps", max_rps, "req/s");
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mb", peak_mb, "MiB");
        std::printf("samples: %zu requests at %.1f req/s offered "
                    "(%zu decodes); latency limit %.0f ms\n",
                    lat.size(), d.rate, fixed.latencies(true).size(),
                    1e3 * d.limitSeconds);
        reportLatency(lat, fixed.latencies(true), m, tr);
        return;
    }

    // Traced run: scheduler-side spans from each result, then the
    // sequential replay attribution.
    reportLatency(lat, fixed.latencies(true), m, tr);
    ServeLayer sl;
    std::vector<double> queue, service, late;
    std::size_t decodes = 0;
    for (std::size_t i = 0; i < fixed.records.size(); ++i) {
        const Record &r = fixed.records[i];
        late.push_back(r.late);
        decodes += r.decode ? 1 : 0;
        if (!r.completed())
            continue;
        queue.push_back(r.queue);
        service.push_back(r.service);
    }
    sl.queueP50Ms = 1e3 * median(queue);
    sl.queueP99Ms = 1e3 * percentile(queue, 99);
    sl.serviceP50Ms = 1e3 * median(service);
    sl.serviceP99Ms = 1e3 * percentile(service, 99);
    const double batches = static_cast<double>(s1.batches - s0.batches);
    sl.batchRequests =
        batches > 0
            ? static_cast<double>(s1.completed - s0.completed) / batches
            : 0.0;
    sl.maxQueueDepth = static_cast<double>(s1.maxQueueDepth);
    sl.shed = static_cast<double>(s1.shed - s0.shed);
    sl.failed = static_cast<double>(s1.failed - s0.failed);
    sl.timedOut = static_cast<double>(s1.timedOut - s0.timedOut);
    sl.chunkRuns = static_cast<double>(s1.chunkRuns - s0.chunkRuns);
    sl.evictions = static_cast<double>(s1.kvEvictions - s0.kvEvictions);
    sl.coldRuns = static_cast<double>(s1.kvColdRuns - s0.kvColdRuns);
    sl.coldFrac = decodes > 0 ? sl.coldRuns / decodes : 0.0;
    sl.genLateMs = 1e3 * percentile(late, 99);

    // Sequential replay on the nproc pool: spans around generation and
    // each stage; the untraced Engine::run beside it gives the tracing
    // overhead, a one-thread run of the first few the scaling.
    sched.reset(); // drained and joined: the pool is the replay's now
    EngineConfig ecfg;
    ecfg.computeQuality = false;
    ecfg.pool = pool.get();
    const Engine eng(ecfg);
    ThreadPool pool1(1);
    EngineConfig ecfg1 = ecfg;
    ecfg1.pool = &pool1;
    const Engine eng1(ecfg1);
    const Runner plain_run = [&eng](const std::vector<HeadTask> &t) {
        return eng.run(t);
    };
    const Runner one_run = [&eng1](const std::vector<HeadTask> &t) {
        return eng1.run(t);
    };
    EngineProfile prof;
    std::vector<double> gen_s, untraced_s, traced_s, leftover_s;
    std::vector<double> scale_1; ///< 1-thread runs of the first requests
    double svc_sum = 0.0, gen_sum = 0.0, tokens = 0.0;
    for (std::size_t i = 0;
         i < fixed.records.size() && gen_s.size() < kReplaySample; ++i) {
        const Record &rec = fixed.records[i];
        const Request &req = fixed.requests[i];
        if (!rec.completed())
            continue;
        const int root = tr.begin("replay.request", -1, req.id);
        const int gspan = tr.begin("model.generate", root, req.id);
        const Clock::time_point g0 = Clock::now();
        const ModelWorkload mw = sofa::generateModelWorkload(req.work);
        const double g = seconds(g0, Clock::now());
        tr.end(gspan);
        const std::size_t before = prof.runSeconds.size();
        const EngineResult traced = referenceRun(
            [&](const std::vector<HeadTask> &t) {
                return steppedRun(eng, t, tr, root, req.id, &prof);
            },
            mw, rec, d.chunkRows);
        tr.end(root);
        double e = 0.0;
        for (std::size_t r = before; r < prof.runSeconds.size(); ++r)
            e += prof.runSeconds[r];
        const Clock::time_point u0 = Clock::now();
        const EngineResult plain =
            referenceRun(plain_run, mw, rec, d.chunkRows);
        const double u = seconds(u0, Clock::now());
        if (digest(traced) != rec.digest || digest(plain) != rec.digest)
            st.mismatch("replay of request " + std::to_string(req.id) +
                        " differs from the scheduler's result");
        ++st.attempted;
        const std::vector<HeadTask> tasks = gridTasks(mw, rec.kvCold);
        prof.addCounts(plain, tasks);
        if (gen_s.size() < kScalingSample) {
            ThreadPool::ScopedSerial serial;
            const Clock::time_point s0t = Clock::now();
            referenceRun(one_run, mw, rec, d.chunkRows);
            scale_1.push_back(seconds(s0t, Clock::now()));
        }
        gen_s.push_back(g);
        traced_s.push_back(e);
        untraced_s.push_back(u);
        leftover_s.push_back(rec.service - (g + e));
        svc_sum += rec.service;
        gen_sum += g;
        tokens += req.work.queryRows();
    }
    prof.report(m);
    if (prof.stageSumViolations > 0)
        st.mismatch("stage self time exceeded engine run wall");
    m.set("engine.scaling",
          sum(scale_1) / sum({untraced_s.begin(),
                              untraced_s.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      scale_1.size())}),
          "x");
    m.set("model.generate.ms", 1e3 * median(gen_s), "ms");
    m.set("model.generate.share", svc_sum > 0 ? gen_sum / svc_sum : 0.0,
          "fraction");
    m.set("bench.untraced_tok_s", tokens / sum(untraced_s), "tok/s");
    m.set("bench.traced_tok_s", tokens / sum(traced_s), "tok/s");
    m.set("bench.trace_overhead_frac",
          sum(traced_s) / sum(untraced_s) - 1.0, "fraction");
    sl.leftoverMs = 1e3 * median(leftover_s);
    sl.report(m);

    KernelShapes shapes;
    for (std::size_t i = 0; i < fixed.requests.size() && i < 6; ++i) {
        shapes.contexts.push_back(fixed.requests[i].work.contextLen());
        shapes.queryRows.push_back(fixed.requests[i].work.queryRows());
    }
    shapes.sorterInputs = sofa::SadsConfig{}.sorterInputs;
    probeKernels(shapes, o.seed, m, tr, -1);

    // Per-layer table: request = lateness + queue + generate + stages
    // + named leftover (medians; the model/core rows are the replay).
    double stages = 0.0;
    std::printf("\nper-layer breakdown of one request (medians; model "
                "and core rows are replay attribution):\n");
    std::printf("  %-28s %10.3f ms\n", "bench.gen_late",
                1e3 * median(late));
    std::printf("  %-28s %10.3f ms\n", "serve.queue", sl.queueP50Ms);
    std::printf("  %-28s %10.3f ms\n", "model.generate",
                1e3 * median(gen_s));
    for (std::size_t k = 0; k < kStages.size(); ++k) {
        const double ms = 1e3 * median(prof.stageSeconds[k]);
        stages += ms;
        std::printf("  core.%-23s %10.3f ms\n", kStages[k], ms);
    }
    const double req_ms = 1e3 * median(lat);
    std::printf("  %-28s %10.3f ms (batching, dispatch, co-scheduled "
                "work)\n",
                "leftover",
                req_ms - 1e3 * median(late) - sl.queueP50Ms -
                    1e3 * median(gen_s) - stages);
    std::printf("  %-28s %10.3f ms\n", "= request (from due)", req_ms);
}

} // namespace perfbench
