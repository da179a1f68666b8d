/**
 * @file
 * Workload `train_calibrate`: the offline model-development pipeline.
 *
 * Set-up synthesizes and sim-profiles the harness's default training
 * corpus under a seed from the command line (harness::defaultDataset:
 * synth::synthesize plus mutated members of the workloads:: families,
 * never the evaluation instances themselves) and pre-encodes it with
 * model::encodeForTraining. The timed part then
 *
 *  1. trains the Small config for a fixed number of epochs through
 *     harness::trainCostModelUncached on nproc trainer threads,
 *  2. scores held-out MAPE with CostModel::predict on the workloads::
 *     evaluation instances,
 *  3. runs the paper's Figure 4 loop (calib::DpoCalibrator::observe
 *     against sim::profile truth) over every input-varying held-out
 *     workload, one calibrator per workload on nproc threads,
 *  4. times cycles predictions across input variants through
 *     model::InferenceSession objects with prefix reuse (paper Section
 *     5.3), one per thread on nproc threads, until the run's time
 *     budget is spent.
 *
 * It drives the autograd forward and backward beside the inference
 * forward on the same nn layers, and is the only workload that uses
 * prefix reuse and DPO. Training and calibration are bit-deterministic
 * across thread counts and backends, so the quality figures it prints
 * change only when the numerics do.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "bench.h"
#include "calib/dpo.h"
#include "eval/metrics.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/profiler.h"
#include "synth/dataset.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace llmulator;

namespace {

constexpr int kEpochs = 2;
constexpr int kCalibSteps = 2; //!< observations per held-out workload
constexpr int kSetupReps = 3;
//! Samples of the untimed training pass closing each set-up, so the
//! timed training starts on warm allocator arenas.
constexpr size_t kWarmUpSamples = 32;

int
threadCount()
{
    return int(std::max(1u, std::thread::hardware_concurrency()));
}

struct Corpus
{
    synth::Dataset ds;
    std::vector<model::TrainingEncoding> encs;
    double synthS = 0;
    double encodeS = 0;
};

Corpus
buildCorpus(uint64_t seed, const model::CostModel& m, Tracer& tracer)
{
    Corpus c;
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan s(tracer, "synth.synthesize", 0);
        synth::SynthConfig cfg = harness::defaultSynthConfig();
        cfg.seed = seed * 1000003 + 17;
        c.ds = harness::defaultDataset(cfg);
    }
    const Clock::time_point t1 = Clock::now();
    {
        ScopedSpan s(tracer, "harness.encode_corpus", 0);
        c.encs.reserve(c.ds.samples.size());
        for (const synth::Sample& smp : c.ds.samples)
            c.encs.push_back(model::encodeForTraining(
                m, smp.graph, smp.hasData ? &smp.data : nullptr,
                smp.reasoning));
    }
    c.synthS = secondsBetween(t0, t1);
    c.encodeS = secondsBetween(t1, Clock::now());
    return c;
}

struct TrainResult
{
    harness::TrainStats stats;
    double seconds = 0;
    uint64_t gemmCalls = 0, gemmFlops = 0; //!< traced pass only
};

TrainResult
train(model::CostModel& m, const Corpus& c, Tracer& tracer)
{
    harness::TrainConfig tcfg;
    tcfg.epochs = kEpochs;
    tcfg.trainThreads = threadCount();
    TrainResult r;
    obs::registry().reset();
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan s(tracer, "harness.train", 0);
        r.stats = harness::trainCostModelUncached(m, c.ds, c.encs, tcfg);
    }
    r.seconds = secondsBetween(t0, Clock::now());
    nnGemmTotals(&r.gemmCalls, &r.gemmFlops);
    return r;
}

/** One epoch on the corpus head, on a throwaway model. */
void
warmUp(const model::CostModelConfig& mcfg, const Corpus& c)
{
    const size_t n = std::min(kWarmUpSamples, c.ds.size());
    synth::Dataset head;
    head.samples.assign(c.ds.samples.begin(), c.ds.samples.begin() + n);
    std::vector<model::TrainingEncoding> encs(c.encs.begin(),
                                              c.encs.begin() + n);
    harness::TrainConfig tcfg;
    tcfg.epochs = 1;
    tcfg.trainThreads = threadCount();
    model::CostModel m(mcfg);
    harness::trainCostModelUncached(m, head, encs, tcfg);
}

using Workloads = std::vector<workloads::Workload>;

Workloads
heldOut()
{
    Workloads all;
    for (auto ws : {workloads::polybench(), workloads::modern(),
                    workloads::accelerators()})
        all.insert(all.end(), ws.begin(), ws.end());
    return all;
}

struct EvalResult
{
    double mape[model::kNumMetrics] = {0, 0, 0, 0};
    size_t distinctCycles = 0;
    uint64_t predictions = 0;
};

EvalResult
evaluate(const model::CostModel& m, const Workloads& ws,
         const std::vector<model::Targets>& truth, Tracer& tracer)
{
    EvalResult r;
    std::set<long> cycles;
    for (int mi = 0; mi < model::kNumMetrics; ++mi) {
        const auto metric = static_cast<model::Metric>(mi);
        std::vector<double> errs;
        for (size_t i = 0; i < ws.size(); ++i) {
            const workloads::Workload& w = ws[i];
            const uint64_t rid = tracer.on() ? tracer.nextId() : 0;
            ScopedSpan root(tracer, "eval.predict", rid);
            model::EncodedProgram ep;
            {
                ScopedSpan s(tracer, "model.encode", rid, root.id());
                ep = m.encode(w.graph, metric == model::Metric::Cycles
                                           ? &w.canonicalData
                                           : nullptr);
            }
            long pred;
            {
                ScopedSpan s(tracer, "model.predict", rid, root.id());
                pred = m.predict(ep, metric).value;
            }
            if (metric == model::Metric::Cycles)
                cycles.insert(pred);
            errs.push_back(eval::absPctError(pred, truth[i].get(metric)));
            ++r.predictions;
        }
        r.mape[mi] = eval::mean(errs);
    }
    r.distinctCycles = cycles.size();
    return r;
}

struct CalibResult
{
    double mapeCalibrated = 0;
    uint64_t steps = 0;
    uint64_t nonFinite = 0;
    double seconds = 0;
    std::vector<double> observeMs, profileUs;
    double profileMs = 0, stepMs = 0;
};

/**
 * Figure 4 loop per input-varying workload: observe kCalibSteps input
 * variants (predict, profile, DPO update), then score the calibrated
 * prediction on the canonical input. Workloads run on nproc threads,
 * each with its own calibrator (policy and reference clones).
 */
CalibResult
calibrate(const model::CostModel& m, const Workloads& ws,
          const std::vector<model::Targets>& truth, Tracer& tracer)
{
    std::vector<size_t> varying;
    for (size_t i = 0; i < ws.size(); ++i)
        if (!ws[i].variants.empty())
            varying.push_back(i);
    const int threads = threadCount();
    struct Part
    {
        std::vector<double> errs, observeMs, profileUs;
        double profileMs = 0, stepMs = 0;
        uint64_t steps = 0, nonFinite = 0;
    };
    std::vector<Part> parts(static_cast<size_t>(threads));
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            Part& part = parts[size_t(t)];
            for (size_t k = size_t(t); k < varying.size();
                 k += size_t(threads)) {
                const workloads::Workload& w = ws[varying[k]];
                calib::DpoConfig dcfg;
                dcfg.lr = 5e-4f;
                dcfg.minibatch = 3;
                calib::DpoCalibrator cal(m, dcfg);
                for (int it = 0; it < kCalibSteps; ++it) {
                    const dfir::RuntimeData& data =
                        w.variants[size_t(it) % w.variants.size()];
                    const uint64_t rid = tracer.on() ? tracer.nextId() : 0;
                    ScopedSpan root(tracer, "calib.step", rid);
                    const Clock::time_point a = Clock::now();
                    long truthCycles;
                    {
                        ScopedSpan s(tracer, "sim.profile", rid, root.id());
                        truthCycles = sim::profile(w.graph, data).cycles;
                    }
                    const Clock::time_point b = Clock::now();
                    model::EncodedProgram ep;
                    {
                        ScopedSpan s(tracer, "model.encode", rid, root.id());
                        ep = cal.policy().encode(w.graph, &data);
                    }
                    const Clock::time_point c = Clock::now();
                    double loss;
                    {
                        ScopedSpan s(tracer, "calib.observe", rid, root.id());
                        loss = cal.observe(ep, truthCycles);
                    }
                    const Clock::time_point d = Clock::now();
                    part.profileUs.push_back(usBetween(a, b));
                    part.observeMs.push_back(msBetween(c, d));
                    part.profileMs += msBetween(a, b);
                    part.stepMs += msBetween(a, d);
                    part.nonFinite += std::isfinite(loss) ? 0 : 1;
                    ++part.steps;
                }
                model::EncodedProgram ep =
                    cal.policy().encode(w.graph, &w.canonicalData);
                part.errs.push_back(eval::absPctError(
                    cal.predict(ep).value,
                    truth[varying[k]].get(model::Metric::Cycles)));
            }
        });
    }
    for (std::thread& th : pool)
        th.join();
    CalibResult r;
    r.seconds = secondsBetween(t0, Clock::now());
    std::vector<double> errs;
    for (Part& p : parts) {
        errs.insert(errs.end(), p.errs.begin(), p.errs.end());
        r.observeMs.insert(r.observeMs.end(), p.observeMs.begin(),
                           p.observeMs.end());
        r.profileUs.insert(r.profileUs.end(), p.profileUs.begin(),
                           p.profileUs.end());
        r.profileMs += p.profileMs;
        r.stepMs += p.stepMs;
        r.steps += p.steps;
        r.nonFinite += p.nonFinite;
    }
    r.mapeCalibrated = eval::mean(errs);
    return r;
}

struct AdaptResult
{
    std::vector<double> reuseMs;   //!< encode + predict, prefix reused
    std::vector<double> coldMs;    //!< session predict, cold prefix
    std::vector<double> sessionReuseMs; //!< session predict, reused
    model::SessionStats stats;
    uint64_t predictions = 0;
    uint64_t negative = 0;
    int passes = 0; //!< fewest whole passes any thread made
};

/**
 * Cycles predictions across input variants with prefix reuse, on nproc
 * threads that each own an InferenceSession: per input-varying
 * workload, one cold prediction on the canonical input, then one per
 * variant reusing the static prefix. Each thread runs whole passes
 * over the workloads, at least one, until `deadline`, starting at its
 * own offset, so every run predicts the same mix and the samples
 * spread over every core rather than one.
 */
AdaptResult
adapt(const model::CostModel& m, const Workloads& ws,
      Clock::time_point deadline, Tracer& tracer)
{
    std::vector<const workloads::Workload*> varying;
    for (const workloads::Workload& w : ws)
        if (!w.variants.empty())
            varying.push_back(&w);
    const int threads = threadCount();
    std::vector<AdaptResult> parts(static_cast<size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            AdaptResult& r = parts[size_t(t)];
            model::InferenceSession session(m);
            do {
                for (size_t k = 0; k < varying.size(); ++k) {
                    const workloads::Workload& w =
                        *varying[(k + size_t(t)) % varying.size()];
                    session.invalidate();
                    for (size_t vi = 0; vi <= w.variants.size(); ++vi) {
                        const dfir::RuntimeData& data =
                            vi == 0 ? w.canonicalData : w.variants[vi - 1];
                        const uint64_t rid =
                            tracer.on() ? tracer.nextId() : 0;
                        ScopedSpan root(tracer, "model.adapt_predict", rid);
                        const Clock::time_point a = Clock::now();
                        model::EncodedProgram ep;
                        {
                            ScopedSpan s(tracer, "model.encode", rid,
                                         root.id());
                            ep = m.encode(w.graph, &data);
                        }
                        const Clock::time_point b = Clock::now();
                        long value;
                        {
                            ScopedSpan s(tracer, "model.session_predict",
                                         rid, root.id());
                            value = session
                                        .predict(ep, model::Metric::Cycles,
                                                 true)
                                        .value;
                        }
                        const Clock::time_point c = Clock::now();
                        if (vi == 0) {
                            r.coldMs.push_back(msBetween(b, c));
                        } else {
                            r.reuseMs.push_back(msBetween(a, c));
                            r.sessionReuseMs.push_back(msBetween(b, c));
                        }
                        r.negative += value < 0 ? 1 : 0;
                        ++r.predictions;
                    }
                }
                ++r.passes;
            } while (Clock::now() < deadline);
            r.stats = session.stats();
        });
    }
    for (std::thread& th : pool)
        th.join();
    AdaptResult r;
    r.passes = parts.front().passes;
    for (const AdaptResult& p : parts) {
        r.reuseMs.insert(r.reuseMs.end(), p.reuseMs.begin(),
                         p.reuseMs.end());
        r.coldMs.insert(r.coldMs.end(), p.coldMs.begin(), p.coldMs.end());
        r.sessionReuseMs.insert(r.sessionReuseMs.end(),
                                p.sessionReuseMs.begin(),
                                p.sessionReuseMs.end());
        r.stats.fullForwards += p.stats.fullForwards;
        r.stats.cachedForwards += p.stats.cachedForwards;
        r.stats.rowsComputed += p.stats.rowsComputed;
        r.stats.rowsReused += p.stats.rowsReused;
        r.predictions += p.predictions;
        r.negative += p.negative;
        r.passes = std::min(r.passes, p.passes);
    }
    return r;
}

} // namespace

void
runTrainCalibrate(const Args& args, Report& rep)
{
    Tracer tracer(false);
    const model::CostModelConfig mcfg = harness::defaultOursConfig();

    // Set-up, repeated: model construction, corpus synthesis and
    // profiling, training-set encoding, warm-up pass. A traced run also
    // traces the last repetition.
    std::vector<double> setupS, synthS, encodeS;
    Corpus corpus;
    for (int r = 0; r < kSetupReps; ++r) {
        const Clock::time_point t0 = r == 0 ? g_processStart : Clock::now();
        tracer.setOn(args.trace && r + 1 == kSetupReps);
        model::CostModel m(mcfg);
        corpus = buildCorpus(args.seed, m, tracer);
        warmUp(mcfg, corpus);
        setupS.push_back(secondsBetween(t0, Clock::now()));
        synthS.push_back(corpus.synthS);
        encodeS.push_back(corpus.encodeS);
    }
    tracer.setOn(false);
    const Workloads ws = heldOut();
    std::vector<model::Targets> truth;
    for (const workloads::Workload& w : ws)
        truth.push_back(harness::groundTruth(w));
    std::printf("corpus samples=%zu held_out=%zu synth_s=%.4f "
                "encode_s=%.4f\n",
                corpus.ds.size(), ws.size(), median(synthS),
                median(encodeS));

    const Clock::time_point timedStart = Clock::now();
    const Clock::time_point deadline =
        timedStart + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));

    // In a traced run, an untraced training pass from the same initial
    // weights gives the overhead baseline.
    TrainResult plainTrain;
    if (args.trace) {
        model::CostModel m(mcfg);
        plainTrain = train(m, corpus, tracer);
        obs::setMetricsEnabled(true);
        tracer.setOn(true);
    }
    model::CostModel m(mcfg);
    const TrainResult tr = train(m, corpus, tracer);
    const EvalResult ev = evaluate(m, ws, truth, tracer);
    const CalibResult cr = calibrate(m, ws, truth, tracer);
    const AdaptResult ar = adapt(m, ws, deadline, tracer);
    tracer.setOn(false);
    obs::setMetricsEnabled(false);

    uint64_t lossNonFinite = 0;
    for (double l : tr.stats.epochLoss)
        lossNonFinite += std::isfinite(l) ? 0 : 1;
    rep.phase("train", uint64_t(tr.stats.samples), lossNonFinite);
    rep.phase("eval", ev.predictions, 0);
    rep.phase("calib", cr.steps, cr.nonFinite);
    rep.phase("adapt", ar.predictions, ar.negative);
    std::printf("adapt passes=%d\n", ar.passes);

    const double samplesPerS = double(tr.stats.samples) / tr.seconds;
    const double staticMape =
        (ev.mape[0] + ev.mape[1] + ev.mape[2]) / 3.0;
    const double stepsPerS = double(cr.steps) / cr.seconds;
    const double rowsTotal =
        double(ar.stats.rowsComputed + ar.stats.rowsReused);
    const double distinctShare =
        double(synth::datasetStats(corpus.ds).distinctCanonical) /
        double(corpus.ds.size());
    double tokens = 0;
    for (const model::TrainingEncoding& e : corpus.encs)
        tokens += e.stat.length();
    const double tokensMean = tokens / double(corpus.encs.size());
    const double reusedShare =
        rowsTotal <= 0 ? 0 : double(ar.stats.rowsReused) / rowsTotal;
    std::printf("work distinct_canonical_share=%.6f tokens_mean=%.3f "
                "rows_reused_share=%.6f\n",
                distinctShare, tokensMean, reusedShare);

    if (!args.trace) {
        rep.metric("setup_s", median(setupS), "s", setupS.size());
        rep.metric("peak_rss_mb", peakRssMb(), "MB", 1);
        rep.metric("ops_per_s", samplesPerS, "1/s",
                   size_t(tr.stats.samples));
        rep.metric("latency_p50_ms", quantile(ar.reuseMs, 0.50), "ms",
                   ar.reuseMs.size());
        rep.metric("latency_p99_ms", quantile(ar.reuseMs, 0.99), "ms",
                   ar.reuseMs.size());
        rep.info("train_samples_per_s", samplesPerS, "1/s",
                 size_t(tr.stats.samples));
        rep.info("calib_steps_per_s", stepsPerS, "1/s", cr.steps);
        rep.info("adapt_pred_ms", median(ar.reuseMs), "ms",
                 ar.reuseMs.size());
        rep.info("static_mape", staticMape, "ratio", 3 * ws.size());
        rep.info("cycles_mape", ev.mape[3], "ratio", ws.size());
        rep.info("cycles_mape_calibrated", cr.mapeCalibrated, "ratio",
                 cr.steps / kCalibSteps);
        rep.info("eval.distinct_cycles_predictions",
                 double(ev.distinctCycles), "count", ws.size());
        return;
    }

    rep.layer("trainer.encode_s", median(encodeS), "s", encodeS.size());
    rep.layer("trainer.epoch_s", tr.seconds / kEpochs, "s", kEpochs);
    rep.layer("trainer.steps", double(tr.stats.steps), "count", 1);
    rep.layer("trainer.samples", double(tr.stats.samples), "count", 1);
    rep.layer("train_samples_per_s", samplesPerS, "1/s",
              size_t(tr.stats.samples));
    const double samples = double(std::max<long>(tr.stats.samples, 1));
    rep.layer("nn.gemm_calls_per_sample", double(tr.gemmCalls) / samples,
              "count", size_t(tr.stats.samples));
    rep.layer("nn.gemm_flops_per_sample", double(tr.gemmFlops) / samples,
              "count", size_t(tr.stats.samples));
    rep.layer("static_mape", staticMape, "ratio", 3 * ws.size());
    rep.layer("cycles_mape", ev.mape[3], "ratio", ws.size());
    rep.layer("eval.distinct_cycles_predictions", double(ev.distinctCycles),
              "count", ws.size());
    rep.layer("cycles_mape_calibrated", cr.mapeCalibrated, "ratio",
              cr.steps / kCalibSteps);
    rep.layer("calib_steps_per_s", stepsPerS, "1/s", cr.steps);
    rep.layer("calib.observe_ms", meanOf(cr.observeMs), "ms",
              cr.observeMs.size());
    rep.layer("calib.profile_share",
              cr.stepMs <= 0 ? 0 : cr.profileMs / cr.stepMs, "ratio",
              cr.steps);
    rep.layer("sim.profile_us", meanOf(cr.profileUs), "us",
              cr.profileUs.size());
    rep.layer("synth.synthesize_s", median(synthS), "s", synthS.size());
    rep.layer("adapt_pred_ms", median(ar.reuseMs), "ms", ar.reuseMs.size());
    rep.layer("model.session_ms_cold", meanOf(ar.coldMs), "ms",
              ar.coldMs.size());
    rep.layer("model.session_ms_reuse", meanOf(ar.sessionReuseMs), "ms",
              ar.sessionReuseMs.size());
    rep.layer("model.rows_reused_share", reusedShare, "ratio",
              ar.predictions);
    rep.layer("dfir.distinct_canonical_share", distinctShare, "ratio",
              corpus.ds.size());
    rep.layer("model.tokens_mean", tokensMean, "count", corpus.encs.size());
    const double plainRate =
        double(plainTrain.stats.samples) / plainTrain.seconds;
    rep.layer("obs.tracing_overhead",
              plainRate <= 0 ? 0 : 1.0 - samplesPerS / plainRate, "ratio", 2);
    reportTrace(tracer, args, rep);
}

} // namespace perfbench
