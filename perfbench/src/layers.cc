/**
 * @file
 * Per-layer probes shared by the workloads: the stage-stepped engine
 * run (core/engine stage spans keyed by EngineRun::nextStageName),
 * the exact-count accumulator over EngineResults, and the tensor
 * kernel timings on the shapes the stages and the generator use.
 */

#include "bench.h"

#include <algorithm>
#include <cstring>

#include "core/pipeline.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/simd.h"

namespace perfbench {

using sofa::Engine;
using sofa::EngineResult;
using sofa::EngineRun;
using sofa::HeadTask;

std::vector<HeadTask>
gridTasks(const sofa::ModelWorkload &mw, bool cold)
{
    std::vector<HeadTask> tasks;
    for (int b = 0; b < mw.batch(); ++b) {
        for (int h = 0; h < mw.heads(); ++h) {
            HeadTask t;
            t.workload = &mw.head(b, h);
            t.batch = b;
            t.head = h;
            t.pastLen =
                mw.spec.isDecode() && !cold ? mw.spec.pastLen : 0;
            tasks.push_back(t);
        }
    }
    return tasks;
}

EngineResult
steppedRun(const Engine &engine, std::vector<HeadTask> tasks,
           Tracer &tr, int parent, std::uint64_t request,
           EngineProfile *prof)
{
    const Clock::time_point t0 = Clock::now();
    const int run_span = tr.begin("engine.run", parent, request);
    EngineRun run(engine, std::move(tasks));
    std::array<double, kStages.size()> stage{};
    while (!run.done()) {
        const char *name = run.nextStageName();
        const int span =
            tr.begin(std::string("core.") + name, run_span, request);
        const Clock::time_point s0 = Clock::now();
        run.step();
        const double dt = seconds(s0, Clock::now());
        tr.end(span);
        for (std::size_t k = 0; k < kStages.size(); ++k)
            if (std::strcmp(name, kStages[k]) == 0)
                stage[k] += dt;
    }
    EngineResult res = run.finish();
    const double wall = seconds(t0, Clock::now());
    tr.end(run_span);
    if (prof != nullptr) {
        double stage_sum = 0.0;
        for (std::size_t k = 0; k < kStages.size(); ++k) {
            prof->stageSeconds[k].push_back(stage[k]);
            stage_sum += stage[k];
        }
        prof->runSeconds.push_back(wall);
        prof->leftoverSeconds.push_back(wall - stage_sum);
        if (stage_sum > wall)
            ++prof->stageSumViolations;
    }
    return res;
}

void
EngineProfile::addCounts(const EngineResult &r,
                         const std::vector<HeadTask> &tasks)
{
    if (tasks.empty())
        return;
    const sofa::WorkloadSpec &ws = tasks.front().workload->spec;
    const sofa::OpCounter kv =
        sofa::kvGenerationOps(r.keysGenerated, ws.tokenDim, ws.headDim);
    dlzsOps += static_cast<double>(r.predictionOps.total());
    sadsCmp += static_cast<double>(r.sortOps.cmps());
    sufaOps += static_cast<double>(r.formalOps.total() - kv.total());
    kvKeys += static_cast<double>(r.keysGenerated);
    kvCached += static_cast<double>(r.keysCached);
    violations += static_cast<double>(r.maxViolations);
    for (const HeadTask &t : tasks)
        queryRows += static_cast<double>(t.workload->q.rows());
    ++results;
}

void
EngineProfile::report(Metrics &m) const
{
    const double wall = sum(runSeconds);
    for (std::size_t k = 0; k < kStages.size(); ++k) {
        const std::string name = std::string("core.") + kStages[k];
        m.set(name + ".ms", 1e3 * median(stageSeconds[k]), "ms");
        m.set(name + ".share",
              wall > 0 ? sum(stageSeconds[k]) / wall : 0.0, "fraction");
    }
    const double n = results > 0 ? static_cast<double>(results) : 1.0;
    m.set("core.dlzs_predict.ops", dlzsOps / n, "ops/run");
    m.set("core.sads_topk.cmp", sadsCmp / n, "cmp/run");
    m.set("core.sufa_attention.ops", sufaOps / n, "ops/run");
    m.set("core.kv_generate.keys", kvKeys / n, "keys/run");
    m.set("core.kv_generate.hit_frac",
          kvKeys + kvCached > 0 ? kvCached / (kvKeys + kvCached) : 0.0,
          "fraction");
    m.set("core.sufa_attention.violations_per_row",
          queryRows > 0 ? violations / queryRows : 0.0, "1/row");
    m.set("engine.run.ms", 1e3 * median(runSeconds), "ms");
    m.set("engine.leftover.ms", 1e3 * median(leftoverSeconds), "ms");
}

namespace {

/** Median seconds per repetition of @p body over ~@p budget s. */
template <typename F>
double
timeReps(F body, double budget)
{
    std::vector<double> reps;
    const Clock::time_point start = Clock::now();
    while (reps.size() < 5 ||
           (seconds(start, Clock::now()) < budget && reps.size() < 400)) {
        const Clock::time_point t0 = Clock::now();
        body();
        reps.push_back(seconds(t0, Clock::now()));
    }
    return median(reps);
}

sofa::MatF
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    sofa::MatF m(rows, cols);
    for (float &x : m.data())
        x = static_cast<float>(2.0 * rng.uniform() - 1.0);
    return m;
}

} // namespace

void
probeKernels(const KernelShapes &shapes, std::uint64_t seed, Metrics &m,
             Tracer &tr, int parent)
{
    constexpr double kBudget = 0.15; // seconds per kernel and shape
    Rng rng(mix64(seed ^ 0x7E45011ull));
    const std::size_t d = static_cast<std::size_t>(shapes.headDim);
    std::vector<double> dot_ns, mm_ns, scan_ns, mm_bytes, scan_bytes;
    double flops = 0.0, flop_seconds = 0.0;
    volatile double sink = 0.0;
    const std::size_t nshapes = std::min<std::size_t>(
        shapes.contexts.size(), 6);
    const int span = tr.begin("tensor.probe", parent, 0);
    for (std::size_t i = 0; i < nshapes; ++i) {
        const std::size_t S =
            static_cast<std::size_t>(shapes.contexts[i]);
        const std::size_t T =
            static_cast<std::size_t>(shapes.queryRows[i]);
        const sofa::MatF k = randomMatrix(S, d, rng);
        const sofa::MatF q = randomMatrix(T, d, rng);
        const sofa::MatF scores = randomMatrix(8, S, rng);

        // SU-FA's per-key q.k over one head's keys (d-long rows).
        const double dot = timeReps(
            [&] {
                double acc = 0.0;
                for (std::size_t j = 0; j < S; ++j)
                    acc += sofa::dotBlock(q.rowPtr(0), k.rowPtr(j), d);
                sink = sink + acc;
            },
            kBudget);
        dot_ns.push_back(1e9 * dot / static_cast<double>(S));

        // SADS threshold scan over whole score rows (S-long).
        const double mm = timeReps(
            [&] {
                float lo = 0.0f, hi = 0.0f;
                for (std::size_t r = 0; r < scores.rows(); ++r) {
                    sofa::minmaxBlock(scores.rowPtr(r), S, &lo, &hi);
                    sink = sink + lo + hi;
                }
            },
            kBudget);
        mm_ns.push_back(1e9 * mm / static_cast<double>(scores.rows()));
        mm_bytes.push_back(static_cast<double>(S * sizeof(float)));

        // SADS clip filter: sorter-input chunks with ~20% survivors.
        const std::size_t chunk =
            static_cast<std::size_t>(shapes.sorterInputs);
        std::vector<std::int32_t> idx(chunk);
        std::size_t survivors = 0, calls = 0;
        const double scan = timeReps(
            [&] {
                survivors = calls = 0;
                for (std::size_t r = 0; r < scores.rows(); ++r) {
                    for (std::size_t p = 0; p + chunk <= S; p += chunk) {
                        survivors += sofa::simd::scanSurvivors(
                            scores.rowPtr(r) + p, chunk, 0.6f,
                            idx.data());
                        ++calls;
                    }
                }
                sink = sink + static_cast<double>(survivors);
            },
            kBudget);
        if (calls > 0) {
            scan_ns.push_back(1e9 * scan / static_cast<double>(calls));
            scan_bytes.push_back(
                static_cast<double>(chunk * sizeof(float)) +
                static_cast<double>(survivors * sizeof(std::int32_t)) /
                    static_cast<double>(calls));
        }

        // The generator's score matmul: Q [T x d] . K [S x d]^T.
        const double gemm = timeReps(
            [&] {
                const sofa::MatF s = sofa::matmulNT(q, k);
                sink = sink + s.data()[0];
            },
            kBudget);
        flops += 2.0 * static_cast<double>(T * S * d);
        flop_seconds += gemm;
    }
    tr.end(span);
    m.set("tensor.dotBlock.ns", median(dot_ns), "ns/call");
    m.set("tensor.dotBlock.bytes",
          static_cast<double>(2 * d * sizeof(float)),
          "computed_B/call");
    m.set("tensor.minmaxBlock.ns", median(mm_ns), "ns/call");
    m.set("tensor.minmaxBlock.bytes", median(mm_bytes),
          "computed_B/call");
    m.set("tensor.scanSurvivors.ns", median(scan_ns), "ns/call");
    m.set("tensor.scanSurvivors.bytes", median(scan_bytes),
          "computed_B/call");
    m.set("tensor.matmulNT.gflops",
          flop_seconds > 0 ? flops / flop_seconds * 1e-9 : 0.0,
          "GFLOP/s");
}

} // namespace perfbench
