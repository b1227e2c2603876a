/**
 * Scheduling-policy tests (serving v2): EDF's deadline-order-prefix
 * invariant at the queue level (hand-built + randomized), DRR's
 * within-one-quantum fairness over backlogged tenants, FIFO's
 * bit-compatibility with the original single-policy scheduler across
 * serial and pooled execution, and prefill chunking's stitched
 * bit-exactness. All scheduler-level runs reuse the determinism
 * idiom of test_scheduler.cc: results must match a standalone
 * Engine::run of the same spec whatever they were co-scheduled with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <vector>

#include "common/threadpool.h"
#include "serve/scheduler.h"
#include "testprop.h"
#include "testutil.h"

namespace sofa {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

/** Tiny prefill request spec (fast enough for many engine runs). */
ModelWorkloadSpec
prefillSpec(std::uint64_t salt = 0)
{
    ModelWorkloadSpec spec;
    spec.batch = 1;
    spec.heads = 2;
    spec.seq = 64;
    spec.queries = 8;
    spec.headDim = 16;
    spec.tokenDim = 24;
    spec.seed = 0x90C1E500ull + salt;
    return spec;
}

/** Tiny KV-cache decode step spec. */
ModelWorkloadSpec
decodeSpec(std::uint64_t salt = 0)
{
    ModelWorkloadSpec spec = prefillSpec(salt);
    spec.pastLen = 60;
    spec.newTokens = 4;
    return spec;
}

Request
makeRequest(std::uint64_t id, const ModelWorkloadSpec &work)
{
    Request r;
    r.id = id;
    r.work = work;
    return r;
}

PendingRequest
pendingSized(std::uint64_t id, int heads, int tenant = 0)
{
    PendingRequest p;
    p.request.id = id;
    p.request.work.batch = 1;
    p.request.work.heads = heads;
    p.request.work.seq = 16;
    p.request.tenant = tenant;
    return p;
}

/** Every numerical field of two per-head results must agree. */
void
expectSameResult(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.selections, b.selections);
    EXPECT_EQ(a.predictionOps.total(), b.predictionOps.total());
    EXPECT_EQ(a.sortOps.total(), b.sortOps.total());
    EXPECT_EQ(a.formalOps.total(), b.formalOps.total());
    EXPECT_EQ(a.keysGenerated, b.keysGenerated);
    EXPECT_DOUBLE_EQ(a.massRecall, b.massRecall);
}

/** Per-request scheduler result vs a standalone Engine::run. */
void
expectMatchesStandalone(const RequestResult &r, const Request &req,
                        const EngineConfig &ecfg)
{
    ASSERT_EQ(r.outcome, Outcome::Completed);
    const EngineResult ref =
        runEngine(generateModelWorkload(req.work), ecfg);
    ASSERT_EQ(r.engine.heads.size(), ref.heads.size());
    for (std::size_t h = 0; h < ref.heads.size(); ++h)
        expectSameResult(r.engine.heads[h].result,
                         ref.heads[h].result);
    EXPECT_EQ(r.engine.totalOps().total(), ref.totalOps().total());
    EXPECT_EQ(r.engine.keysCached, ref.keysCached);
}

// ---------------------------------------------------------------
// EDF
// ---------------------------------------------------------------

TEST(EdfPolicy, EarlierDeadlineDispatchesFirstWhateverArrivalOrder)
{
    RequestQueue q(16, SchedulingPolicy::EDF);
    const Clock::time_point now = Clock::now();
    // Arrive loose-deadline first, tight-deadline last.
    for (int i = 0; i < 4; ++i) {
        PendingRequest p = pendingSized(
            static_cast<std::uint64_t>(i), /*heads=*/1);
        p.hasDeadline = true;
        p.deadline = now + std::chrono::seconds(10 - i);
        ASSERT_TRUE(q.push(std::move(p)));
    }
    PendingRequest none = pendingSized(4, 1); // no deadline: last
    ASSERT_TRUE(q.push(std::move(none)));
    const auto batch = q.popBatch(/*head_budget=*/100,
                                  /*token_budget=*/1 << 20);
    ASSERT_EQ(batch.size(), 5u);
    EXPECT_EQ(batch[0].request.id, 3u); // tightest deadline
    EXPECT_EQ(batch[1].request.id, 2u);
    EXPECT_EQ(batch[2].request.id, 1u);
    EXPECT_EQ(batch[3].request.id, 0u);
    EXPECT_EQ(batch[4].request.id, 4u); // deadline-free sorts last
}

TEST(EdfPolicy, RandomizedPopsAreAlwaysDeadlineOrderPrefixes)
{
    // With no pushes between pops, budget-bounded EDF batches must
    // concatenate to the globally deadline-sorted order: a batch is
    // a prefix of the sorted backlog, so a later-deadline request is
    // never dispatched while an earlier-deadline one waits.
    testprop::forEachSeededCase(40, [](int c, Rng &rng) {
        RequestQueue q(64, SchedulingPolicy::EDF);
        const Clock::time_point now = Clock::now();
        const int n = static_cast<int>(rng.uniformInt(1, 24));
        struct Key
        {
            Clock::time_point deadline;
            std::uint64_t seq;
        };
        std::vector<Key> keys;
        for (int i = 0; i < n; ++i) {
            PendingRequest p = pendingSized(
                static_cast<std::uint64_t>(i),
                static_cast<int>(rng.uniformInt(1, 4)));
            if (rng.bernoulli(0.8)) {
                p.hasDeadline = true;
                p.deadline =
                    now + std::chrono::milliseconds(
                              rng.uniformInt(-1000, 1000));
            }
            keys.push_back(Key{p.hasDeadline
                                   ? p.deadline
                                   : Clock::time_point::max(),
                               static_cast<std::uint64_t>(i)});
            ASSERT_TRUE(q.push(std::move(p)));
        }
        std::vector<std::uint64_t> expected(keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            expected[i] = i;
        std::sort(expected.begin(), expected.end(),
                  [&](std::uint64_t a, std::uint64_t b) {
                      if (keys[a].deadline != keys[b].deadline)
                          return keys[a].deadline < keys[b].deadline;
                      return keys[a].seq < keys[b].seq;
                  });
        std::vector<std::uint64_t> popped;
        while (q.size() > 0) {
            const std::int64_t budget = rng.uniformInt(1, 8);
            for (PendingRequest &p :
                 q.popBatch(budget, 1 << 20))
                popped.push_back(p.request.id);
        }
        EXPECT_EQ(popped, expected) << "case " << c;
    });
}

// ---------------------------------------------------------------
// DRR
// ---------------------------------------------------------------

TEST(DrrPolicy, BackloggedTenantsServeWithinOneQuantum)
{
    // Three tenants with deep 1..3-head backlogs; per-batch head
    // budget far below the total so windows keep cutting rounds
    // short. Batch windows are cut points in one continuous DRR
    // scan, so at every window boundary any two backlogged tenants'
    // cumulative served head tasks stay within one quantum plus one
    // max-size request of one another — the classic
    // Shreedhar-Varghese bound, independent of the budget.
    testprop::forEachSeededCase(20, [](int c, Rng &rng) {
        const std::int64_t quantum = rng.uniformInt(3, 6);
        const int tenants = 3, per_tenant = 24, max_heads = 3;
        RequestQueue q(256, SchedulingPolicy::DRR, quantum);
        std::map<int, std::int64_t> backlog, served;
        std::uint64_t id = 0;
        for (int i = 0; i < per_tenant; ++i) {
            for (int t = 0; t < tenants; ++t) {
                const int h =
                    static_cast<int>(rng.uniformInt(1, max_heads));
                ASSERT_TRUE(q.push(pendingSized(id++, h, t)));
                backlog[t] += h;
            }
        }
        const std::int64_t slack = quantum + max_heads;
        while (true) {
            bool all_backlogged = true;
            for (int t = 0; t < tenants; ++t)
                all_backlogged &= backlog[t] > 0;
            if (!all_backlogged)
                break;
            const auto batch =
                q.popBatch(/*head_budget=*/8, 1 << 20);
            ASSERT_FALSE(batch.empty());
            for (const PendingRequest &p : batch) {
                served[p.request.tenant] += p.request.headTasks();
                backlog[p.request.tenant] -= p.request.headTasks();
            }
            for (int a = 0; a < tenants; ++a)
                for (int b = 0; b < tenants; ++b)
                    EXPECT_LE(served[a] - served[b], slack)
                        << "case " << c << " tenants " << a << "/"
                        << b;
        }
    });
}

TEST(DrrPolicy, SingleTenantDegeneratesToFifo)
{
    RequestQueue q(16, SchedulingPolicy::DRR, /*quantum=*/2);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(q.push(pendingSized(i, /*heads=*/2, 0)));
    std::vector<std::uint64_t> order;
    while (q.size() > 0)
        for (PendingRequest &p : q.popBatch(4, 1 << 20))
            order.push_back(p.request.id);
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(DrrPolicy, SchedulerCompletesAllTenantsBitExact)
{
    SchedulerConfig cfg;
    cfg.policy = SchedulingPolicy::DRR;
    cfg.drrQuantumHeads = 4;
    cfg.startPaused = true;
    cfg.headBudget = 6;
    Scheduler sched(cfg);
    std::vector<Request> trace;
    std::vector<std::future<RequestResult>> futs;
    for (int i = 0; i < 9; ++i) {
        Request r = makeRequest(
            static_cast<std::uint64_t>(i),
            i % 2 == 0 ? prefillSpec(static_cast<std::uint64_t>(i))
                       : decodeSpec(static_cast<std::uint64_t>(i)));
        r.tenant = i % 3;
        trace.push_back(r);
        futs.push_back(sched.submit(r));
    }
    sched.drain();
    for (std::size_t i = 0; i < futs.size(); ++i) {
        const RequestResult r = futs[i].get();
        EXPECT_EQ(r.id, trace[i].id);
        expectMatchesStandalone(r, trace[i], cfg.engine);
    }
    EXPECT_EQ(sched.stats().completed, 9);
}

// ---------------------------------------------------------------
// FIFO bit-compatibility + cross-policy determinism
// ---------------------------------------------------------------

TEST(PolicyDeterminism, AllPoliciesBitExactAcrossPoolsAndSerial)
{
    // Per-request numerical results must be identical under every
    // policy (scheduling changes order, never values) and at every
    // thread count — the FIFO column doubles as the bit-compat
    // check against the original single-policy scheduler, whose
    // contract test_scheduler.cc pins the same way.
    std::vector<Request> trace;
    for (int i = 0; i < 6; ++i) {
        Request r = makeRequest(
            static_cast<std::uint64_t>(i),
            i % 2 == 0 ? prefillSpec(static_cast<std::uint64_t>(i))
                       : decodeSpec(static_cast<std::uint64_t>(i)));
        r.tenant = i % 2;
        trace.push_back(r);
    }
    for (SchedulingPolicy policy :
         {SchedulingPolicy::FIFO, SchedulingPolicy::EDF,
          SchedulingPolicy::DRR}) {
        SchedulerConfig cfg;
        cfg.policy = policy;
        cfg.lanes = 2;
        cfg.headBudget = 4;

        std::vector<RequestResult> serial;
        {
            ThreadPool::ScopedSerial guard;
            Scheduler sched(cfg);
            serial = runClosedLoop(sched, trace, 2);
        }
        ASSERT_EQ(serial.size(), trace.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectMatchesStandalone(serial[i], trace[i],
                                    cfg.engine);
        for (int threads : {1, 2, 8}) {
            ThreadPool pool(threads);
            SchedulerConfig tcfg = cfg;
            tcfg.engine.pool = &pool;
            Scheduler sched(tcfg);
            const auto results = runClosedLoop(sched, trace, 2);
            ASSERT_EQ(results.size(), serial.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                ASSERT_EQ(results[i].engine.heads.size(),
                          serial[i].engine.heads.size());
                for (std::size_t h = 0;
                     h < results[i].engine.heads.size(); ++h)
                    expectSameResult(
                        results[i].engine.heads[h].result,
                        serial[i].engine.heads[h].result);
                EXPECT_EQ(results[i].engine.totalOps().total(),
                          serial[i].engine.totalOps().total());
            }
        }
    }
}

// ---------------------------------------------------------------
// Prefill chunking
// ---------------------------------------------------------------

TEST(PrefillChunking, EachChunkBitExactVsStandaloneSliceRun)
{
    // The chunked result banks one HeadResult per (chunk, head), in
    // chunk order. Every chunk must be bit-exact vs a standalone
    // engine run of the same row-sliced workload (sliceQueryRows is
    // the shared slicer) — and the whole thing must replay
    // identically. Note the contract deliberately references the
    // *sliced* run, not the unchunked one: the DLZS predictor
    // quantizes Q per chunk, so selections may move at the
    // approximation margin between chunked and unchunked runs.
    SchedulerConfig cfg;
    cfg.prefillChunkRows = 3; // 8 query rows -> chunks of 3, 3, 2
    const Request req = makeRequest(11, prefillSpec());

    Scheduler sched(cfg);
    const RequestResult r = sched.submit(req).get();
    ASSERT_EQ(r.outcome, Outcome::Completed);
    EXPECT_EQ(r.chunks, 3);
    EXPECT_EQ(sched.stats().chunkRuns, 3);

    const ModelWorkload full = generateModelWorkload(req.work);
    const int rows = req.work.queryRows();
    ASSERT_EQ(r.engine.heads.size(),
              static_cast<std::size_t>(3 * req.work.heads));
    std::size_t idx = 0;
    for (int r0 = 0; r0 < rows; r0 += cfg.prefillChunkRows) {
        const int r1 = std::min(rows, r0 + cfg.prefillChunkRows);
        for (int h = 0; h < req.work.heads; ++h) {
            const AttentionWorkload slice =
                sliceQueryRows(full.head(0, h), r0, r1);
            HeadTask task;
            task.workload = &slice;
            task.batch = 0;
            task.head = h;
            const EngineResult ref = Engine(cfg.engine).run(
                std::vector<HeadTask>{task});
            ASSERT_EQ(ref.heads.size(), 1u);
            const HeadResult &got = r.engine.heads[idx++];
            EXPECT_EQ(got.batch, 0);
            EXPECT_EQ(got.head, h);
            expectSameResult(got.result, ref.heads[0].result);
        }
    }

    // Chunking is deterministic: a second scheduler replays the
    // identical per-chunk results.
    Scheduler again(cfg);
    const RequestResult r2 = again.submit(req).get();
    ASSERT_EQ(r2.engine.heads.size(), r.engine.heads.size());
    for (std::size_t i = 0; i < r.engine.heads.size(); ++i)
        expectSameResult(r2.engine.heads[i].result,
                         r.engine.heads[i].result);
}

TEST(PrefillChunkingDeath, SliceQueryRowsRejectsBadRowRange)
{
    // sliceQueryRows is public API: a range outside [0, rows] or with
    // r0 > r1 must fail loudly instead of indexing past Q/scores.
    // Threadsafe style re-executes the binary, so the pools other
    // tests in this process started never cross a fork.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
    const ModelWorkload full = generateModelWorkload(prefillSpec());
    const AttentionWorkload &w = full.head(0, 0);
    const int rows = static_cast<int>(w.q.rows());
    EXPECT_DEATH(sliceQueryRows(w, -1, 2), "assertion");
    EXPECT_DEATH(sliceQueryRows(w, 3, 2), "assertion");
    EXPECT_DEATH(sliceQueryRows(w, 0, rows + 1), "assertion");
    // The full and the empty range stay valid.
    EXPECT_EQ(sliceQueryRows(w, 0, rows).q.rows(), w.q.rows());
    EXPECT_EQ(sliceQueryRows(w, rows, rows).q.rows(), 0u);
}

TEST(PrefillChunking, DecodeAndShortPrefillNeverChunk)
{
    SchedulerConfig cfg;
    cfg.prefillChunkRows = 16; // larger than any request here
    Scheduler sched(cfg);
    const Request pre = makeRequest(1, prefillSpec(1));
    const Request dec = makeRequest(2, decodeSpec(2));
    const RequestResult a = sched.submit(pre).get();
    const RequestResult b = sched.submit(dec).get();
    EXPECT_EQ(a.chunks, 1);
    EXPECT_EQ(b.chunks, 1);
    expectMatchesStandalone(a, pre, cfg.engine);
    expectMatchesStandalone(b, dec, cfg.engine);
    EXPECT_EQ(sched.stats().chunkRuns, 0);
}

TEST(PrefillChunking, ChunkedBatchStillCompletesEveryRequest)
{
    // Chunk continuations re-enqueue behind waiting decodes; all
    // requests still drain and stay bit-exact per stitched row.
    SchedulerConfig cfg;
    cfg.prefillChunkRows = 4;
    cfg.startPaused = true;
    cfg.headBudget = 8;
    Scheduler sched(cfg);
    std::vector<std::future<RequestResult>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(sched.submit(makeRequest(
            static_cast<std::uint64_t>(i),
            i % 2 == 0 ? prefillSpec(static_cast<std::uint64_t>(i))
                       : decodeSpec(static_cast<std::uint64_t>(i)))));
    sched.drain();
    int chunked = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
        const RequestResult r = futs[i].get();
        ASSERT_EQ(r.outcome, Outcome::Completed) << i;
        if (r.chunks > 1)
            ++chunked;
    }
    EXPECT_EQ(chunked, 3); // every 8-row prefill split into 2
    EXPECT_EQ(sched.stats().completed, 6);
}

} // namespace
} // namespace serve
} // namespace sofa
