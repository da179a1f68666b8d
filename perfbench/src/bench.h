#ifndef LLMULATOR_PERFBENCH_BENCH_H
#define LLMULATOR_PERFBENCH_BENCH_H

/**
 * @file
 * Shared plumbing of the repo benchmark: command-line arguments, exact
 * quantiles over raw samples, the report that run.py turns into the
 * result JSON, and the benchmark-side span tracer.
 *
 * Every timing the benchmark reports comes from std::chrono::steady_clock
 * around calls the benchmark itself makes into a layer's public API, or
 * from counters a server already exposes. Nothing here is compiled into
 * the program under test.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "model/numeric_head.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds / milliseconds / microseconds between two instants. */
double secondsBetween(Clock::time_point a, Clock::time_point b);
double msBetween(Clock::time_point a, Clock::time_point b);
double usBetween(Clock::time_point a, Clock::time_point b);

/** Parsed command line: `--workload W --seed N --seconds S --trace 0|1
 *  --workdir DIR --source ID`. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".";
    std::string source = "unknown"; //!< git SHA or source digest
};

/** When main() started: the first set-up repetition counts from it. */
extern Clock::time_point g_processStart;

Args parseArgs(int argc, char** argv);

/** Exact quantile (nearest rank) of raw samples; 0 when empty. */
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);
double meanOf(const std::vector<double>& xs);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Every field of two predictions equal, bit for bit. */
bool samePrediction(const llmulator::model::NumericPrediction& a,
                    const llmulator::model::NumericPrediction& b);

/** Snapshot of histogram `name` in `reg`; empty when absent. */
llmulator::obs::HistogramSnapshot histogramNow(
    const llmulator::obs::Registry& reg, const std::string& name);

/** Sum of the global registry's `nn.<kernel>.<backend>.{calls,flops}`
 *  counters over every GEMM kernel and backend. */
void nnGemmTotals(uint64_t* calls, uint64_t* flops);

/**
 * Prints metric lines and per-phase operation counts, and totals the
 * counts for the result line, in the line format run.py parses:
 *
 *   metric <name> <value> <unit> n=<samples>   (end-to-end, untraced)
 *   layer <name> <value> <unit> n=<samples>    (per-layer, traced run)
 *   info <name> <value> <unit> n=<samples>     (shown, not gated)
 *   phase <name> attempted=A succeeded=S failed=F
 *   result correct=<0|1> attempted=A failed=F
 *
 * Values print with 17 significant digits: nothing is rounded away.
 */
class Report
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit, size_t n);
    void layer(const std::string& name, double value,
               const std::string& unit, size_t n);
    /** Informational line (`info ...`): printed, never gated. */
    void info(const std::string& name, double value,
              const std::string& unit, size_t n);
    /** A phase's operation counts; every phase also counts toward the
     *  result totals unless `total` is false (check phases count only
     *  their failures). */
    void phase(const std::string& name, uint64_t attempted, uint64_t failed,
               bool total = true);
    /** Print the final result line: correct when nothing failed. */
    void finish();

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Benchmark-side span recorder. A span is (name, start, end, parent,
 * request id); spans are kept in memory and written once at the end.
 * A disabled tracer records nothing and costs one branch per span.
 * Thread-safe: client threads record concurrently.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0; //!< 0 = root
        uint64_t request = 0;
        Clock::time_point start;
        Clock::time_point end;
    };

    explicit Tracer(bool on) : on_(on) {}
    bool on() const { return on_; }
    void setOn(bool on) { on_ = on; }

    /** Fresh span id (also usable as a request id). */
    uint64_t nextId();
    void record(Span s);

    /**
     * Self time of every span (its duration minus the time covered by
     * its children), summed per layer. A layer is the span name up to
     * its first '.'. Returns milliseconds per layer.
     */
    std::map<std::string, double> selfMsByLayer() const;
    size_t size() const;

    /** Write every span as one JSON object per line. */
    void write(const std::string& path) const;

  private:
    bool on_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t next_ = 0;
};

/** RAII span: records [construction, destruction) when tracing is on. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& t, const char* name, uint64_t request,
               uint64_t parent = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer& t_;
    const char* name_;
    uint64_t id_ = 0;
    uint64_t request_;
    uint64_t parent_;
    Clock::time_point start_;
};

/**
 * Report each repo module's share of the traced self time
 * (`self_share.<layer>`) and write the spans to
 * `<workdir>/trace_<workload>.jsonl`. Spans of other layers (the
 * benchmark's own `bench.*` roots) count in the total.
 */
void reportTrace(const Tracer& t, const Args& args, Report& rep);

/** Runs of the three workloads; each fills `rep`. */
void runFleetZipf(const Args& args, Report& rep);
void runDseSweep(const Args& args, Report& rep);
void runTrainCalibrate(const Args& args, Report& rep);

} // namespace perfbench

#endif // LLMULATOR_PERFBENCH_BENCH_H
