/**
 * @file
 * Workload `dse_sweep`: the model-bound design-space sweep.
 *
 * An in-process serve::PredictionServer at its default ServeConfig
 * (4 workers, batchMax 8, result cache on) answers a DSE tool's queries.
 * One generator thread keeps a closed window of 32 requests outstanding
 * and submits each candidate design's 4 metrics back to back, so the 4
 * requests of a design share one encoder forward. Every (program, input)
 * pair is distinct — seeded synth programs across three size classes,
 * with augmentHardware and generateRuntimeData — so the result cache
 * never hits and every request runs encode -> batched forward -> decode.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "dfir/passes.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "synth/generators.h"

namespace perfbench {

using namespace llmulator;

namespace {

constexpr size_t kWindow = 32;
constexpr int kMetrics = model::kNumMetrics;
//! Pool capacity in designs per measured second: about twice what the
//! sweep consumes today, so a faster server still finds fresh designs.
constexpr double kDesignsPerSecond = 600;
constexpr size_t kCheckDesigns = 256;
constexpr int kSetupReps = 3;
constexpr int kCheckThreads = 4;
//! Untimed sweep closing each set-up, so the timed window starts on
//! warm allocator arenas and worker threads.
constexpr double kWarmUpSeconds = 1.0;

struct Design
{
    dfir::DataflowGraph graph;
    dfir::RuntimeData data;
    bool hasData = false;
};

/** Three program size classes, cycled over the pool. */
synth::GenConfig
sizeClass(size_t i)
{
    synth::GenConfig g;
    switch (i % 3) {
    case 0:
        g.maxOpsPerGraph = 1;
        g.minBound = 4;
        g.maxBound = 16;
        break;
    case 1:
        g.maxOpsPerGraph = 2;
        g.minBound = 8;
        g.maxBound = 32;
        break;
    default:
        g.maxOpsPerGraph = 3;
        g.minBound = 16;
        g.maxBound = 64;
        break;
    }
    return g;
}

/** The pool of distinct designs, in submission order. */
std::vector<Design>
buildPool(uint64_t seed, size_t n)
{
    util::Rng rng(seed * 0xbf58476d1ce4e5b9ull + 5);
    std::vector<Design> pool;
    pool.reserve(n);
    std::unordered_set<serve::ResultKey, serve::ResultKeyHash> seen;
    while (pool.size() < n) {
        const synth::GenConfig gen = sizeClass(pool.size());
        Design d;
        d.graph = pool.size() % 2 ? synth::generateAstProgram(rng, gen)
                                  : synth::generateDataflowProgram(rng, gen);
        synth::augmentHardware(d.graph, rng, {10, 5, 2});
        d.hasData = dfir::countDynamicParams(d.graph) > 0;
        if (d.hasData)
            d.data = synth::generateRuntimeData(d.graph, rng);
        // The server's own key: a design that collides with an earlier
        // one would turn into a cache hit, so it is drawn again.
        dfir::CanonResult canon = dfir::canonicalizeEx(d.graph);
        serve::ResultKey key;
        key.program = dfir::structuralHash(canon.graph);
        key.input = d.hasData ? serve::hashRuntimeData(dfir::remapRuntimeData(
                                    d.data, canon.scalarRenames))
                              : 0;
        if (seen.insert(key).second)
            pool.push_back(std::move(d));
    }
    return pool;
}

/** One answered request. */
struct Answer
{
    size_t design = 0;
    int metric = 0;
    model::NumericPrediction prediction;
};

struct PhaseResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;      //!< futures that threw
    uint64_t inWindow = 0;    //!< answered before the deadline
    double seconds = 0;
    bool poolExhausted = false;
    std::vector<double> latencyMs; //!< answered before the deadline
    std::vector<Answer> answers;
    // Traced phase only: benchmark-side probes, one per design.
    std::vector<double> canonUs, encodeUs, tokens;
};

/**
 * Closed window of kWindow outstanding requests, refilled one design
 * (kMetrics requests) at a time. The generator waits on the oldest
 * request, then collects every other one that is already answered;
 * latency is submit -> collected.
 */
PhaseResult
sweep(serve::PredictionServer& server, const model::CostModel& model,
      const std::vector<Design>& pool, size_t& next, double seconds,
      Tracer& tracer)
{
    struct Pending
    {
        std::future<model::NumericPrediction> future;
        Clock::time_point submitted;
        Clock::time_point rootStart;
        size_t design;
        int metric;
        uint64_t rid;
    };
    PhaseResult res;
    std::deque<Pending> pending;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

    auto collect = [&](Pending& p) {
        const Clock::time_point now = Clock::now();
        try {
            Answer a{p.design, p.metric, p.future.get()};
            res.answers.push_back(std::move(a));
            if (now <= deadline) {
                ++res.inWindow;
                res.latencyMs.push_back(msBetween(p.submitted, now));
            }
        } catch (const std::exception&) {
            ++res.failed;
        }
        if (tracer.on())
            tracer.record({"serve.request", p.rid, 0, p.rid, p.rootStart,
                           Clock::now()});
    };

    for (;;) {
        const bool open = Clock::now() < deadline;
        if (open && next >= pool.size())
            res.poolExhausted = true;
        while (open && next < pool.size() &&
               pending.size() + kMetrics <= kWindow) {
            const Design& d = pool[next];
            const dfir::RuntimeData* data = d.hasData ? &d.data : nullptr;
            for (int m = 0; m < kMetrics; ++m) {
                Pending p;
                p.design = next;
                p.metric = m;
                p.rid = tracer.on() ? tracer.nextId() : 0;
                p.rootStart = Clock::now();
                if (tracer.on() && m == 0) {
                    Clock::time_point t0 = Clock::now();
                    {
                        ScopedSpan s(tracer, "dfir.canonical_hash", p.rid,
                                     p.rid);
                        (void)dfir::canonicalHash(d.graph);
                    }
                    Clock::time_point t1 = Clock::now();
                    {
                        ScopedSpan s(tracer, "model.encode", p.rid, p.rid);
                        res.tokens.push_back(
                            double(model.encode(d.graph, data).length()));
                    }
                    res.canonUs.push_back(usBetween(t0, t1));
                    res.encodeUs.push_back(usBetween(t1, Clock::now()));
                }
                {
                    ScopedSpan s(tracer, "serve.submit", p.rid, p.rid);
                    p.submitted = Clock::now();
                    p.future = server.submitAsync(
                        d.graph, data, static_cast<model::Metric>(m));
                }
                ++res.attempted;
                pending.push_back(std::move(p));
            }
            ++next;
        }
        if (pending.empty())
            break;
        pending.front().future.wait();
        collect(pending.front());
        pending.pop_front();
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                collect(*it);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    res.seconds = std::min(secondsBetween(start, Clock::now()), seconds);
    return res;
}

/**
 * Recompute a sample of the answered designs with the in-process
 * reference — InferenceSession::forwardPooledBatch plus
 * DigitHead::decodeBatch at the server's beam width — and count every
 * answer that differs in any bit.
 */
uint64_t
checkAnswers(const model::CostModel& model, const std::vector<Design>& pool,
             const std::vector<Answer>& answers, int beamWidth,
             size_t* checked, double* tokensMean)
{
    std::vector<std::vector<const Answer*>> byDesign(pool.size());
    std::vector<size_t> designs;
    for (const Answer& a : answers) {
        if (byDesign[a.design].empty())
            designs.push_back(a.design);
        byDesign[a.design].push_back(&a);
    }
    std::sort(designs.begin(), designs.end());
    std::vector<size_t> sample;
    const size_t stride = std::max<size_t>(1, designs.size() / kCheckDesigns);
    for (size_t i = 0; i < designs.size(); i += stride)
        sample.push_back(designs[i]);

    std::vector<uint64_t> bad(kCheckThreads, 0), compared(kCheckThreads, 0);
    std::vector<double> tokens(kCheckThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kCheckThreads; ++t) {
        threads.emplace_back([&, t] {
            model::InferenceSession session(model);
            for (size_t i = size_t(t); i < sample.size(); i += kCheckThreads) {
                const Design& d = pool[sample[i]];
                model::EncodedProgram ep =
                    model.encode(d.graph, d.hasData ? &d.data : nullptr);
                tokens[size_t(t)] += ep.length();
                nn::TensorPtr pooled = session.forwardPooledBatch({&ep});
                for (const Answer* a : byDesign[sample[i]]) {
                    model::NumericPrediction ref =
                        model.head(static_cast<model::Metric>(a->metric))
                            .decodeBatch(pooled, beamWidth)
                            .front();
                    bad[size_t(t)] +=
                        samePrediction(ref, a->prediction) ? 0 : 1;
                    ++compared[size_t(t)];
                }
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    uint64_t mismatches = 0;
    *checked = 0;
    double tok = 0;
    for (int t = 0; t < kCheckThreads; ++t) {
        mismatches += bad[size_t(t)];
        *checked += compared[size_t(t)];
        tok += tokens[size_t(t)];
    }
    *tokensMean = sample.empty() ? 0 : tok / double(sample.size());
    return mismatches;
}

/** Mean ms of `reps` calls of `fn`. */
template <typename Fn>
double
timeMs(int reps, Fn fn)
{
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i)
        fn(i);
    return msBetween(t0, Clock::now()) / double(reps);
}

} // namespace

void
runDseSweep(const Args& args, Report& rep)
{
    const size_t poolSize = size_t(
        std::ceil((args.seconds + kWarmUpSeconds) * kDesignsPerSecond));
    std::vector<double> setupS;
    std::unique_ptr<model::CostModel> model;
    std::unique_ptr<serve::PredictionServer> server;
    std::vector<Design> pool;
    Tracer tracer(false);
    size_t next = 0;
    PhaseResult warm;
    for (int r = 0; r < kSetupReps; ++r) {
        const Clock::time_point t0 = r == 0 ? g_processStart : Clock::now();
        server.reset();
        model =
            std::make_unique<model::CostModel>(harness::defaultOursConfig());
        server = std::make_unique<serve::PredictionServer>(model->clone());
        pool = buildPool(args.seed, poolSize);
        next = 0;
        warm = sweep(*server, *model, pool, next, kWarmUpSeconds, tracer);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    const double untracedS = args.trace ? args.seconds / 2 : args.seconds;
    PhaseResult plain = sweep(*server, *model, pool, next, untracedS, tracer);
    PhaseResult traced;
    if (args.trace) {
        obs::registry().reset();
        obs::setMetricsEnabled(true);
        tracer.setOn(true);
        traced = sweep(*server, *model, pool, next, args.seconds / 2, tracer);
        tracer.setOn(false);
        obs::setMetricsEnabled(false);
    }
    const serve::ServerStats stats = server->stats();
    server->stop();

    std::vector<Answer> answers = warm.answers;
    answers.insert(answers.end(), plain.answers.begin(), plain.answers.end());
    answers.insert(answers.end(), traced.answers.begin(),
                   traced.answers.end());
    size_t checked = 0;
    double tokensMean = 0;
    const uint64_t mismatches =
        checkAnswers(*model, pool, answers, server->config().beamWidth,
                     &checked, &tokensMean);

    rep.phase("warmup", warm.attempted, warm.failed);
    rep.phase("timed", plain.attempted, plain.failed);
    if (args.trace)
        rep.phase("traced", traced.attempted, traced.failed);
    rep.phase("check_answers", checked, mismatches, false);
    if (plain.poolExhausted || traced.poolExhausted)
        std::printf("note design pool exhausted before the deadline\n");

    const double forwards = double(
        histogramNow(server->telemetry(), "serve.stage.forward_ms").count);
    const double forwardsPerRequest =
        stats.completed == 0 ? 0 : forwards / double(stats.completed);
    std::printf("work distinct_canonical_share=1 hit_rate=%.6f "
                "tokens_mean=%.3f forwards_per_request=%.6f designs=%zu\n",
                stats.hitRate(), tokensMean, forwardsPerRequest, next);

    if (!args.trace) {
        rep.metric("setup_s", median(setupS), "s", setupS.size());
        rep.metric("peak_rss_mb", peakRssMb(), "MB", 1);
        rep.metric("ops_per_s", double(plain.inWindow) / plain.seconds,
                   "1/s", plain.inWindow);
        rep.metric("latency_p50_ms", quantile(plain.latencyMs, 0.50), "ms",
                   plain.latencyMs.size());
        rep.metric("latency_p99_ms", quantile(plain.latencyMs, 0.99), "ms",
                   plain.latencyMs.size());
        rep.info("req_per_s", double(plain.inWindow) / plain.seconds, "1/s",
                 plain.inWindow);
        return;
    }

    // Counters of the traced phase (the metrics gate was on only then).
    uint64_t gemmCalls = 0, gemmFlops = 0;
    nnGemmTotals(&gemmCalls, &gemmFlops);
    const double tracedReqs = double(std::max<uint64_t>(traced.attempted, 1));

    rep.layer("dfir.canonical_hash_us", meanOf(traced.canonUs), "us",
              traced.canonUs.size());
    rep.layer("dfir.distinct_canonical_share", 1.0, "ratio", pool.size());
    rep.layer("cache.hit_rate", stats.hitRate(), "ratio", stats.completed);
    rep.layer("cache.miss_share", 1.0 - stats.hitRate(), "ratio",
              stats.completed);
    rep.layer("serve.queue_wait_ms", stats.meanQueueWaitMs, "ms",
              stats.completed);
    rep.layer("serve.batch_mean", stats.meanBatch, "count", stats.batches);
    rep.layer("serve.stage.assembly_ms", stats.meanAssemblyMs, "ms",
              stats.batches);
    rep.layer("serve.stage.forward_ms", stats.meanForwardMs, "ms",
              stats.batches);
    rep.layer("serve.stage.decode_ms", stats.meanDecodeMs, "ms",
              stats.batches);
    rep.layer("serve.stage.cache_fill_ms", stats.meanCacheFillMs, "ms",
              stats.batches);
    rep.layer("serve.model_calls", double(stats.modelCalls), "count", 1);
    rep.layer("serve.forwards_per_request", forwardsPerRequest, "ratio",
              stats.completed);
    rep.layer("model.encode_us", meanOf(traced.encodeUs), "us",
              traced.encodeUs.size());
    rep.layer("model.tokens_mean", meanOf(traced.tokens), "count",
              traced.tokens.size());
    rep.layer("nn.gemm_calls_per_request", double(gemmCalls) / tracedReqs,
              "count", traced.attempted);
    rep.layer("nn.gemm_flops_per_request", double(gemmFlops) / tracedReqs,
              "count", traced.attempted);

    // Forward and decode probes on the benchmark's own session, over the
    // first designs of the pool.
    constexpr int kB1 = 16, kB8 = 4;
    std::vector<model::EncodedProgram> eps;
    for (int i = 0; i < kB8 * 8; ++i) {
        const Design& d = pool[size_t(i)];
        eps.push_back(model->encode(d.graph, d.hasData ? &d.data : nullptr));
    }
    model::InferenceSession session(*model);
    rep.layer("model.forward_ms_b1", timeMs(kB1, [&](int i) {
                  (void)session.forwardPooledBatch({&eps[size_t(i)]});
              }),
              "ms", kB1);
    std::vector<nn::TensorPtr> pooled8;
    rep.layer("model.forward_ms_b8", timeMs(kB8, [&](int i) {
                  std::vector<const model::EncodedProgram*> b;
                  for (int j = 0; j < 8; ++j)
                      b.push_back(&eps[size_t(i * 8 + j)]);
                  pooled8.push_back(session.forwardPooledBatch(b));
              }),
              "ms", kB8);
    rep.layer("model.decode_ms", timeMs(kB8 * kMetrics, [&](int i) {
                  (void)model->head(static_cast<model::Metric>(i % kMetrics))
                      .decodeBatch(pooled8[size_t(i / kMetrics)],
                                   server->config().beamWidth);
              }),
              "ms", kB8 * kMetrics);

    const double rpsPlain = double(plain.inWindow) / plain.seconds;
    const double rpsTraced = double(traced.inWindow) / traced.seconds;
    rep.layer("obs.tracing_overhead",
              rpsPlain <= 0 ? 0 : 1.0 - rpsTraced / rpsPlain, "ratio", 2);
    reportTrace(tracer, args, rep);
}

} // namespace perfbench
