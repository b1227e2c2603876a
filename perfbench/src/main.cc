/**
 * @file
 * perfbench: the serving-stack benchmark binary.
 *
 *   perfbench --workload <prefill_long|decode_open|mixed_pressure>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <path>]
 *
 * Prints the host, the per-phase request tallies, the correctness
 * gate, a metric table, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1 (whose
 * spans are also written as Chrome trace-event JSON to --trace-out).
 * Exits 1 when any correctness check fails, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<prefill_long|decode_open|mixed_pressure> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            o.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            o.trace = std::strcmp(val, "0") != 0;
        else if (key == "--trace-out")
            o.traceOut = val;
        else
            return usage(("unknown argument " + key).c_str());
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    if (!(o.seconds > 0.0))
        return usage("--seconds must be positive");
    const bool prefill = o.workload == "prefill_long";
    if (!prefill && o.workload != "decode_open" &&
        o.workload != "mixed_pressure")
        return usage(("unknown workload '" + o.workload + "'").c_str());

    std::printf("perfbench %s seed %llu, %.0f s, trace %d; host: %d "
                "threads, SIMD %s\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, hostThreads(), simdLevelName());
    Metrics m;
    Status st;
    Tracer tr(o.trace);
    if (prefill)
        runPrefillLong(o, m, st, tr);
    else
        runServing(o, m, st, tr);

    if (tr.on() && !o.traceOut.empty()) {
        if (tr.write(o.traceOut))
            std::printf("wrote %zu spans to %s\n", tr.size(),
                        o.traceOut.c_str());
        else
            st.mismatch("could not write trace to " + o.traceOut);
    }
    std::printf("\n%s metrics:\n", o.trace ? "per-layer" : "end-to-end");
    m.print();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                st.correct ? "true" : "false",
                static_cast<long long>(st.attempted),
                static_cast<long long>(st.failed), m.json().c_str());
    std::fflush(stdout);
    return st.correct ? 0 : 1;
}
