/**
 * @file
 * Repo benchmark entry point. Runs one named workload for a fixed time and
 * prints metric lines plus a result line (see bench.h); perfbench/run.py
 * builds this binary and turns its output into the result JSON.
 *
 *   perfbench --workload fleet_zipf|dse_sweep|train_calibrate
 *             --seed N --seconds S --trace 0|1 --workdir DIR --source ID
 *
 * With --trace 0 it measures the end-to-end metrics with every telemetry
 * gate forced off, whatever LLMULATOR_METRICS / LLMULATOR_TRACE say. With
 * --trace 1 it measures the per-layer metrics instead: an untraced and a
 * traced pass of the same loop (their throughput ratio is
 * obs.tracing_overhead), benchmark-side spans around each layer call,
 * the servers' own counters, and the global `nn.*` counters.
 */

#include <cstdio>
#include <exception>
#include <thread>

#include "bench.h"
#include "harness/harness.h"
#include "nn/backend.h"
#include "obs/telemetry.h"

int
main(int argc, char** argv)
{
    using namespace perfbench;
    try {
        Args args = parseArgs(argc, argv);

        // Inputs depend on --seed alone: no smoke-mode shrinking, and the
        // telemetry gates are pinned whatever the environment says.
        llmulator::harness::forceSmokeMode(false);
        llmulator::obs::setMetricsEnabled(false);
        llmulator::obs::setTraceEnabled(false);

        std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                    "source=%s nproc=%u compiler=\"%s\" backend=%s\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.seconds,
                    args.trace ? 1 : 0, args.source.c_str(),
                    std::thread::hardware_concurrency(), __VERSION__,
                    llmulator::nn::backend().name);
        std::fflush(stdout);

        Report rep;
        if (args.workload == "fleet_zipf")
            runFleetZipf(args, rep);
        else if (args.workload == "dse_sweep")
            runDseSweep(args, rep);
        else if (args.workload == "train_calibrate")
            runTrainCalibrate(args, rep);
        else
            throw std::runtime_error("unknown workload '" + args.workload +
                                     "'");
        rep.finish();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
