/**
 * @file
 * prefill_long: closed-loop offline prefill. One 512-token prompt
 * (B=1, H=4, seq = queries = 512, default EngineConfig with
 * computeQuality off) per Engine::run, on a pool of nproc threads
 * and on a pool of one thread, interleaved. No scheduler and no input
 * generation sit in the timed region, so the time is the core stages
 * and the tensor kernels.
 *
 * Correctness gate (outside every timed interval and outside
 * setup_s): each prompt's result is bit-identical across repeats and
 * between the two pools, and a computeQuality run meets the
 * mass-recall floor.
 */

#include "bench.h"

#include <cstdio>
#include <memory>
#include <optional>

#include "common/threadpool.h"
#include "core/sads.h"
#include "model/model_workload.h"

namespace perfbench {

using sofa::Engine;
using sofa::EngineConfig;
using sofa::EngineResult;
using sofa::ModelWorkload;
using sofa::ModelWorkloadSpec;
using sofa::ThreadPool;

namespace {

constexpr int kPromptLen = 512;
constexpr int kHeads = 4;
constexpr int kPrompts = 2;      ///< distinct prompts, run round robin
constexpr int kSetupReps = 3;    ///< setup_s is the median of these
constexpr double kLimitSeconds = 0.25; ///< per-prompt latency limit
constexpr double kMassRecallFloor = 0.90;
/** nproc-pool runs per 1-thread run: ~60% of the time on nproc. */
constexpr int kNprocPerOneThread = 5;

ModelWorkloadSpec
promptSpec(std::uint64_t seed, int i)
{
    ModelWorkloadSpec s;
    s.batch = 1;
    s.heads = kHeads;
    s.seq = kPromptLen;
    s.queries = kPromptLen;
    s.seed = mix64(seed * 0x1000 + static_cast<std::uint64_t>(i));
    return s;
}

EngineConfig
engineConfig(ThreadPool *pool)
{
    EngineConfig cfg;
    cfg.computeQuality = false;
    cfg.pool = pool;
    return cfg;
}

/** Everything the timed loops need, built by one setup. */
struct Rig
{
    std::unique_ptr<ThreadPool> poolN, pool1;
    std::unique_ptr<Engine> engN, eng1;
    std::vector<ModelWorkload> prompts;
};

Rig
setUp(std::uint64_t seed, int threads, Tracer &tr,
      std::vector<double> &gen_seconds)
{
    Rig rig;
    rig.poolN = std::make_unique<ThreadPool>(threads);
    rig.pool1 = std::make_unique<ThreadPool>(1);
    rig.engN = std::make_unique<Engine>(engineConfig(rig.poolN.get()));
    rig.eng1 = std::make_unique<Engine>(engineConfig(rig.pool1.get()));
    for (int i = 0; i < kPrompts; ++i) {
        const int span = tr.begin("model.generate", -1,
                                  static_cast<std::uint64_t>(i));
        const Clock::time_point t0 = Clock::now();
        rig.prompts.push_back(
            sofa::generateModelWorkload(promptSpec(seed, i)));
        gen_seconds.push_back(seconds(t0, Clock::now()));
        tr.end(span);
    }
    // Lazy set-up (pool workers, allocator arenas) finishes here.
    rig.engN->run(rig.prompts[0]);
    return rig;
}

/** One pool's closed-loop samples. */
struct Loop
{
    const Engine *engine = nullptr;
    bool serial = false;          ///< one participant everywhere
    const char *phase = "";
    EngineProfile prof;           ///< traced runs (trace on)
    std::vector<double> untraced; ///< Engine::run seconds per prompt
    std::vector<double> traced;   ///< stepped-run seconds (trace on)
    double busy = 0.0;            ///< Σ of both
    std::int64_t mismatches = 0;

    std::size_t runs() const { return untraced.size() + traced.size(); }
};

/**
 * One prompt run on @p loop's engine, the next prompt round robin.
 * With the tracer on, a loop's runs alternate between Engine::run and
 * a stage-stepped traced run (the tracing-overhead pair). The result
 * is digested outside the timed interval and compared with @p ref
 * (filled by the first run of each prompt).
 */
void
runOnce(Loop &loop, const Rig &rig, Tracer &tr,
        std::vector<std::uint64_t> &ref, Status &st,
        std::uint64_t &run_id)
{
    const std::size_t i = loop.runs();
    const std::size_t p = i % rig.prompts.size();
    const ModelWorkload &mw = rig.prompts[p];
    const bool traced = tr.on() && i % 2 == 1;
    // The 1-thread loop also keeps kernels that would reach for the
    // process-wide pool on one participant.
    std::optional<ThreadPool::ScopedSerial> serial;
    if (loop.serial)
        serial.emplace();
    const int span = tr.begin(loop.phase, -1, run_id);
    const Clock::time_point t0 = Clock::now();
    const EngineResult res =
        traced ? steppedRun(*loop.engine, gridTasks(mw), tr, span, run_id,
                            &loop.prof)
               : loop.engine->run(mw);
    const double dt = seconds(t0, Clock::now());
    tr.end(span);
    ++run_id;
    (traced ? loop.traced : loop.untraced).push_back(dt);
    loop.busy += dt;
    ++st.attempted;
    if (traced)
        loop.prof.addCounts(res, gridTasks(mw));
    const std::uint64_t h = digest(res);
    if (ref[p] == 0) {
        ref[p] = h;
    } else if (h != ref[p]) {
        ++loop.mismatches;
        st.mismatch(std::string(loop.phase) + ": prompt " +
                    std::to_string(p) + " result differs from its first run");
    }
}

} // namespace

void
runPrefillLong(const Options &o, Metrics &m, Status &st, Tracer &tr)
{
    const int threads = hostThreads();
    std::vector<double> setup_s, gen_s;
    Rig rig;
    for (int r = 0; r < kSetupReps; ++r) {
        rig = Rig{}; // tear the previous rig down outside the timing
        const Clock::time_point t0 = Clock::now();
        rig = setUp(o.seed, threads, tr, gen_s);
        setup_s.push_back(seconds(t0, Clock::now()));
    }

    // The two pools interleave in blocks over the whole run, so both
    // sample the same host conditions (CPU steal drifts over seconds).
    std::vector<std::uint64_t> ref(rig.prompts.size(), 0);
    Loop loopN, loop1;
    loopN.engine = rig.engN.get();
    loopN.phase = "prompt.nproc";
    loop1.engine = rig.eng1.get();
    loop1.serial = true;
    loop1.phase = "prompt.1t";
    std::uint64_t run_id = 0;
    const Clock::time_point start = Clock::now();
    for (int k = 0; loop1.runs() == 0 || seconds(start, Clock::now()) <
                                             o.seconds;
         ++k) {
        Loop &loop = k % (kNprocPerOneThread + 1) == kNprocPerOneThread
                         ? loop1
                         : loopN;
        runOnce(loop, rig, tr, ref, st, run_id);
    }
    const EngineProfile &profN = loopN.prof;
    const EngineProfile &prof1 = loop1.prof;

    // Quality gate: the dense reference must confirm the sparse
    // selection keeps enough softmax mass; outputs stay identical.
    {
        EngineConfig qcfg = engineConfig(rig.poolN.get());
        qcfg.computeQuality = true;
        const EngineResult q = Engine(qcfg).run(rig.prompts[0]);
        ++st.attempted;
        if (!(q.meanMassRecall >= kMassRecallFloor))
            st.mismatch("mass recall " + std::to_string(q.meanMassRecall) +
                        " below floor " +
                        std::to_string(kMassRecallFloor));
        EngineResult plain = q;
        plain.meanMassRecall = 0.0;
        if (digest(plain) != ref[0])
            st.mismatch("computeQuality run changed prompt 0's result");
        std::printf("quality gate: mean mass recall %.4f (floor %.2f)\n",
                    q.meanMassRecall, kMassRecallFloor);
    }

    for (const auto &[name, loop] :
         {std::pair<const char *, const Loop *>{"prompt.nproc", &loopN},
          {"prompt.1t", &loop1}})
        std::printf("phase %-14s sent %6zu  succeeded %6zu  failed %lld\n",
                    name, loop->runs(),
                    loop->runs() - static_cast<std::size_t>(loop->mismatches),
                    static_cast<long long>(loop->mismatches));

    const double tokens = kPromptLen;
    if (!tr.on()) {
        const std::vector<double> &lat = loopN.untraced;
        std::size_t within = 0;
        for (double x : lat)
            within += x <= kLimitSeconds ? 1 : 0;
        m.set("tok_s", tokens / median(lat), "tok/s");
        m.set("tok_s_1t", tokens / median(loop1.untraced), "tok/s");
        m.set("goodput_rps",
              static_cast<double>(within) / loopN.busy, "req/s");
        m.set("max_rps", 1.0 / median(lat), "req/s");
        std::printf("samples: %zu prompts at %d threads, %zu at 1 "
                    "thread; latency limit %.0f ms\n",
                    lat.size(), threads, loop1.untraced.size(),
                    1e3 * kLimitSeconds);
        reportLatency(lat, lat, m, tr); // one request class
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // Per-layer (traced) run.
    KernelShapes shapes;
    shapes.contexts = {kPromptLen};
    shapes.queryRows = {kPromptLen};
    shapes.sorterInputs = sofa::SadsConfig{}.sorterInputs;
    probeKernels(shapes, o.seed, m, tr, -1);
    profN.report(m);
    if (profN.stageSumViolations + prof1.stageSumViolations > 0)
        st.mismatch("stage self time exceeded engine run wall");
    const double run_n = median(profN.runSeconds);
    const double run_1 = median(prof1.runSeconds);
    m.set("engine.scaling", run_1 / run_n, "x");
    const double gen = median(gen_s);
    m.set("model.generate.ms", 1e3 * gen, "ms");
    m.set("model.generate.share", gen / (gen + run_n), "fraction");
    const double untraced_tok_s = tokens / median(loopN.untraced);
    const double traced_tok_s = tokens / run_n;
    m.set("bench.untraced_tok_s", untraced_tok_s, "tok/s");
    m.set("bench.traced_tok_s", traced_tok_s, "tok/s");
    m.set("bench.trace_overhead_frac",
          untraced_tok_s / traced_tok_s - 1.0, "fraction");
    ServeLayer{}.report(m); // no scheduler on this workload
    reportLatency(loopN.untraced, loopN.untraced, m, tr);

    std::printf("\nper-layer breakdown of one prompt at %d threads "
                "(medians):\n",
                threads);
    std::printf("  %-28s %10.3f ms (setup, not in the prompt wall)\n",
                "model.generate", 1e3 * gen);
    for (std::size_t k = 0; k < kStages.size(); ++k)
        std::printf("  core.%-23s %10.3f ms\n", kStages[k],
                    1e3 * median(profN.stageSeconds[k]));
    std::printf("  %-28s %10.3f ms\n", "engine.leftover",
                1e3 * median(profN.leftoverSeconds));
    std::printf("  %-28s %10.3f ms\n", "= engine.run", 1e3 * run_n);
}

} // namespace perfbench
