/**
 * @file
 * Workload `fleet_zipf`: callers wait on the wire for mostly-cached
 * answers.
 *
 * A net::FleetServer (2 shards x 2 workers, persistent result cache on)
 * serves a Zipf(1)-popular corpus to 4 net::FleetClient connections in a
 * closed loop from this process. The corpus is the workloads::
 * evaluation programs plus seeded synth programs; every program also
 * appears as several synth::equivalentMutant renamings, and its cycles
 * queries carry runtime-data variants. Transport, framing, parse,
 * canonicalization and cache probes do nearly all the work; the encoder
 * runs only on the misses. The model is the Small config at its seeded
 * initial weights: serving cost depends on tensor shapes, not weights.
 *
 * The clients are driven through FleetClient exactly as shipped, so the
 * benchmark measures the transport the fleet really has.
 */

#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "dfir/parser.h"
#include "dfir/passes.h"
#include "dfir/printer.h"
#include "harness/harness.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "obs/telemetry.h"
#include "serve/result_cache.h"
#include "synth/generators.h"
#include "workloads/workloads.h"

namespace perfbench {

using namespace llmulator;

namespace {

constexpr int kClients = 4;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 2;
constexpr int kSynthPrograms = 273; // + 27 workloads:: programs = 300
constexpr int kMutantsPerProgram = 3;
constexpr int kDataVariants = 2;
constexpr size_t kWarmQueries = 64;
constexpr int kSetupReps = 3;

/** The corpus, ordered by popularity rank (index 0 = most popular). */
struct Corpus
{
    std::vector<net::NetRequest> queries; //!< distinct wire queries
    std::vector<double> cdf; //!< Zipf(1) over ranks
    size_t programs = 0;
};

void
addQueries(Corpus& c, const dfir::DataflowGraph& g,
           const std::vector<dfir::RuntimeData>& data)
{
    const std::string text = dfir::printStatic(g);
    for (int m = 0; m < model::kNumMetrics; ++m) {
        const auto metric = static_cast<model::Metric>(m);
        if (metric == model::Metric::Cycles && !data.empty()) {
            for (const dfir::RuntimeData& d : data) {
                net::NetRequest q;
                q.program = text;
                q.data = d;
                q.hasData = true;
                q.metric = metric;
                c.queries.push_back(std::move(q));
            }
        } else {
            net::NetRequest q;
            q.program = text;
            q.metric = metric;
            c.queries.push_back(std::move(q));
        }
    }
}

Corpus
buildCorpus(uint64_t seed)
{
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
    std::vector<dfir::DataflowGraph> bases;
    std::vector<std::vector<dfir::RuntimeData>> baseData;
    for (const auto& ws : {workloads::polybench(), workloads::modern(),
                           workloads::accelerators()}) {
        for (const workloads::Workload& w : ws) {
            bases.push_back(w.graph);
            std::vector<dfir::RuntimeData> d = {w.canonicalData};
            for (size_t i = 0; i + 1 < kDataVariants && i < w.variants.size();
                 ++i)
                d.push_back(w.variants[i]);
            if (dfir::countDynamicParams(w.graph) == 0)
                d.clear();
            baseData.push_back(std::move(d));
        }
    }
    for (int i = 0; i < kSynthPrograms; ++i) {
        dfir::DataflowGraph g = i % 2 ? synth::generateAstProgram(rng)
                                      : synth::generateDataflowProgram(rng);
        synth::augmentHardware(g, rng, {10, 5, 2});
        std::vector<dfir::RuntimeData> d;
        if (dfir::countDynamicParams(g) > 0)
            for (int k = 0; k < kDataVariants; ++k)
                d.push_back(synth::generateRuntimeData(g, rng));
        bases.push_back(std::move(g));
        baseData.push_back(std::move(d));
    }

    Corpus c;
    c.programs = bases.size();
    for (size_t p = 0; p < bases.size(); ++p) {
        addQueries(c, bases[p], baseData[p]);
        for (int k = 0; k < kMutantsPerProgram; ++k) {
            synth::EquivalentMutant mut =
                synth::equivalentMutant(bases[p], rng);
            std::vector<dfir::RuntimeData> d;
            for (const dfir::RuntimeData& base : baseData[p])
                d.push_back(dfir::remapRuntimeData(base, mut.scalarRenames));
            addQueries(c, mut.graph, d);
        }
    }
    rng.shuffle(c.queries);
    c.cdf.resize(c.queries.size());
    double total = 0;
    for (size_t i = 0; i < c.cdf.size(); ++i) {
        total += 1.0 / double(i + 1);
        c.cdf[i] = total;
    }
    for (double& x : c.cdf)
        x /= total;
    return c;
}

size_t
sampleRank(const std::vector<double>& cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return it == cdf.end() ? cdf.size() - 1 : size_t(it - cdf.begin());
}

/** The result-cache key the fleet derives for a query. */
serve::ResultKey
classKey(const net::NetRequest& req, const dfir::DataflowGraph& g)
{
    dfir::CanonResult canon = dfir::canonicalizeEx(g);
    serve::ResultKey key;
    key.program = dfir::structuralHash(canon.graph);
    key.input = req.hasData ? serve::hashRuntimeData(dfir::remapRuntimeData(
                                  req.data, canon.scalarRenames))
                            : 0;
    key.metric = static_cast<int>(req.metric);
    return key;
}

/** One answered call, kept for the correctness check. */
struct Answer
{
    size_t query = 0;
    model::NumericPrediction prediction;
};

/** Per-client outcome of a closed-loop phase. */
struct ClientLog
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t overloaded = 0;
    uint64_t badRequest = 0;
    uint64_t failed = 0; //!< transport failures and server errors
    std::vector<double> latencyMs;
    std::vector<Answer> answers;
    // Traced phase only: benchmark-side layer probes.
    std::vector<double> parseUs, canonUs, codecUs, encodeUs, tokens;
};

struct PhaseResult
{
    std::vector<ClientLog> logs;
    double seconds = 0;

    uint64_t sum(uint64_t ClientLog::*f) const
    {
        uint64_t s = 0;
        for (const ClientLog& l : logs)
            s += l.*f;
        return s;
    }
    std::vector<double> all(std::vector<double> ClientLog::*f) const
    {
        std::vector<double> out;
        for (const ClientLog& l : logs)
            out.insert(out.end(), (l.*f).begin(), (l.*f).end());
        return out;
    }
};

/** Record a call's outcome; true when it was answered Ok. */
bool
tally(ClientLog& log, bool sent, const net::NetResponse& resp)
{
    ++log.attempted;
    if (!sent) {
        ++log.failed;
        return false;
    }
    switch (resp.status) {
    case net::Status::Ok:
        ++log.ok;
        return true;
    case net::Status::Overloaded:
        ++log.overloaded;
        return false;
    case net::Status::BadRequest:
        ++log.badRequest;
        return false;
    default:
        ++log.failed;
        return false;
    }
}

/**
 * Closed loop: each client sends its next Zipf-drawn query only after
 * the previous reply arrived, until `seconds` have passed. With a tracer
 * on, every request is a `bench.request` root span whose children time
 * the benchmark's own calls into dfir, the wire codec, the model's
 * tokenizer, and FleetClient::call.
 */
PhaseResult
closedLoop(int port, const Corpus& corpus, const model::CostModel& model,
           uint64_t seed, double seconds, Tracer& tracer)
{
    PhaseResult res;
    res.logs.resize(kClients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog& log = res.logs[size_t(c)];
            util::Rng rng(seed * 7919 + uint64_t(c) * 104729 + 3);
            net::FleetClient client;
            if (!client.connectLoopback(port)) {
                ++log.attempted;
                ++log.failed;
                return;
            }
            while (Clock::now() < deadline) {
                const size_t qi = sampleRank(corpus.cdf, rng.uniform());
                const net::NetRequest& req = corpus.queries[qi];
                net::NetResponse resp;
                const uint64_t rid = tracer.on() ? tracer.nextId() : 0;
                ScopedSpan root(tracer, "bench.request", rid);
                if (tracer.on()) {
                    Clock::time_point t0 = Clock::now();
                    dfir::ParseResult parsed;
                    {
                        ScopedSpan s(tracer, "dfir.parse", rid, root.id());
                        parsed = dfir::parseProgram(req.program);
                    }
                    Clock::time_point t1 = Clock::now();
                    {
                        ScopedSpan s(tracer, "dfir.canonical_hash", rid,
                                     root.id());
                        (void)dfir::canonicalHash(parsed.graph);
                    }
                    Clock::time_point t2 = Clock::now();
                    {
                        ScopedSpan s(tracer, "net.codec_request", rid,
                                     root.id());
                        net::NetRequest back;
                        (void)net::decodeRequest(net::encodeRequest(req),
                                                 back);
                    }
                    Clock::time_point t3 = Clock::now();
                    {
                        ScopedSpan s(tracer, "model.encode", rid, root.id());
                        log.tokens.push_back(double(
                            model.encode(parsed.graph,
                                         req.hasData ? &req.data : nullptr)
                                .length()));
                    }
                    Clock::time_point t4 = Clock::now();
                    log.parseUs.push_back(usBetween(t0, t1));
                    log.canonUs.push_back(usBetween(t1, t2));
                    log.codecUs.push_back(usBetween(t2, t3));
                    log.encodeUs.push_back(usBetween(t3, t4));
                }
                bool sent;
                const Clock::time_point t0 = Clock::now();
                {
                    ScopedSpan s(tracer, "net.round_trip", rid, root.id());
                    sent = client.call(req, resp);
                }
                const Clock::time_point t1 = Clock::now();
                if (tracer.on() && sent) {
                    ScopedSpan s(tracer, "net.codec_response", rid,
                                 root.id());
                    net::NetResponse back;
                    const Clock::time_point c0 = Clock::now();
                    (void)net::decodeResponse(net::encodeResponse(resp),
                                              back);
                    log.codecUs.back() += usBetween(c0, Clock::now());
                }
                if (tally(log, sent, resp)) {
                    log.latencyMs.push_back(msBetween(t0, t1));
                    log.answers.push_back({qi, resp.prediction});
                }
                if (!sent)
                    break; // the connection is gone
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    res.seconds = secondsBetween(start, Clock::now());
    return res;
}

/** One cold fleet, started and filled by the warm-up pass. */
struct Fleet
{
    std::unique_ptr<model::CostModel> model;
    std::unique_ptr<net::FleetServer> server;
    std::vector<Answer> warmAnswers;
    uint64_t warmAttempted = 0;
    uint64_t warmFailed = 0;
};

Fleet
setUpFleet(const Corpus& corpus, const std::string& cachePath)
{
    Fleet f;
    f.model = std::make_unique<model::CostModel>(harness::defaultOursConfig());
    std::remove(cachePath.c_str()); // start cold
    net::FleetConfig cfg;
    cfg.shards = kShards;
    cfg.serve.workers = kWorkersPerShard;
    cfg.persistPath = cachePath;
    f.server = std::make_unique<net::FleetServer>(f.model->clone(), cfg);
    f.server->start();

    // Warm-up: every client sends its slice of the most popular queries.
    const size_t warm = std::min(kWarmQueries, corpus.queries.size());
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog& log = logs[size_t(c)];
            net::FleetClient client;
            const bool up = client.connectLoopback(f.server->port());
            for (size_t qi = size_t(c); qi < warm; qi += kClients) {
                net::NetResponse resp;
                bool sent = up && client.call(corpus.queries[qi], resp);
                if (tally(log, sent, resp))
                    log.answers.push_back({qi, resp.prediction});
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    for (ClientLog& log : logs) {
        f.warmAttempted += log.attempted;
        f.warmFailed += log.attempted - log.ok;
        f.warmAnswers.insert(f.warmAnswers.end(), log.answers.begin(),
                             log.answers.end());
    }
    return f;
}

/**
 * Every wire answer must equal what a fresh PredictionServer predicts
 * for one of the program variants the fleet could have computed it
 * from. The fleet keys its caches and groups each micro-batch's
 * forwards by canonical program and input, so one answer may come from
 * any queried variant with the same canonical program and input,
 * decoded for the answer's metric. The reference server has its result
 * cache off and keys on raw hashes, so it computes every variant from
 * its own text. Returns the number of mismatching answers.
 */
uint64_t
checkAnswers(const Corpus& corpus, const model::CostModel& model,
             const std::vector<Answer>& answers, size_t* references)
{
    // Canonical (program, input) group of every queried query, and one
    // representative query per distinct (text, data) variant in it.
    struct Group
    {
        std::vector<size_t> variants;
    };
    std::map<std::pair<uint64_t, uint64_t>, Group> groups;
    std::map<size_t, std::pair<uint64_t, uint64_t>> groupOf;
    std::map<std::pair<std::string, uint64_t>, size_t> variantRep;
    std::map<size_t, dfir::DataflowGraph> graphs;
    for (const Answer& a : answers) {
        if (groupOf.count(a.query))
            continue;
        const net::NetRequest& req = corpus.queries[a.query];
        dfir::DataflowGraph g = dfir::parseProgram(req.program).graph;
        const serve::ResultKey k = classKey(req, g);
        const std::pair<uint64_t, uint64_t> gk{k.program, k.input};
        groupOf[a.query] = gk;
        const uint64_t dataHash =
            req.hasData ? serve::hashRuntimeData(req.data) : 0;
        auto ins = variantRep.emplace(
            std::make_pair(req.program, dataHash), a.query);
        if (ins.second) {
            groups[gk].variants.push_back(a.query);
            graphs[a.query] = std::move(g);
        }
    }

    serve::ServeConfig rcfg;
    rcfg.cacheCapacity = 0;
    rcfg.canonicalCacheKeys = false;
    serve::PredictionServer ref(model.clone(), rcfg);
    std::map<std::pair<size_t, int>, std::future<model::NumericPrediction>>
        futures;
    for (const Answer& a : answers) {
        const int metric = static_cast<int>(corpus.queries[a.query].metric);
        for (size_t v : groups[groupOf[a.query]].variants) {
            if (futures.count({v, metric}))
                continue;
            const net::NetRequest& vreq = corpus.queries[v];
            futures[{v, metric}] = ref.submitAsync(
                graphs[v], vreq.hasData ? &vreq.data : nullptr,
                static_cast<model::Metric>(metric));
        }
    }
    std::map<std::pair<size_t, int>, model::NumericPrediction> refs;
    for (auto& kv : futures)
        refs[kv.first] = kv.second.get();
    *references = refs.size();

    uint64_t bad = 0;
    for (const Answer& a : answers) {
        const int metric = static_cast<int>(corpus.queries[a.query].metric);
        bool match = false;
        for (size_t v : groups[groupOf[a.query]].variants)
            match = match || samePrediction(a.prediction, refs[{v, metric}]);
        bad += match ? 0 : 1;
    }
    return bad;
}

double
histogramMean(const obs::Registry& reg, const std::string& name,
              const obs::HistogramSnapshot& before, uint64_t* count)
{
    const obs::HistogramSnapshot now = histogramNow(reg, name);
    *count = now.count - before.count;
    return *count == 0 ? 0 : (now.sum - before.sum) / double(*count);
}

} // namespace

void
runFleetZipf(const Args& args, Report& rep)
{
    const std::string cachePath = args.workdir + "/fleet_zipf_cache.bin";

    // Set-up, repeated: corpus, cold fleet, warm-up pass. The last fleet
    // serves the timed phases; the first repetition counts from process
    // start.
    std::vector<double> setupS;
    Corpus corpus;
    Fleet fleet;
    for (int r = 0; r < kSetupReps; ++r) {
        const Clock::time_point t0 = r == 0 ? g_processStart : Clock::now();
        fleet = Fleet{}; // stop the previous fleet before the next starts
        corpus = buildCorpus(args.seed);
        fleet = setUpFleet(corpus, cachePath);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    }

    std::unordered_set<serve::ResultKey, serve::ResultKeyHash> classes;
    for (const net::NetRequest& q : corpus.queries)
        classes.insert(classKey(q, dfir::parseProgram(q.program).graph));
    std::printf("corpus programs=%zu queries=%zu distinct_keys=%zu\n",
                corpus.programs, corpus.queries.size(), classes.size());

    Tracer tracer(false);
    const obs::Registry& reg = fleet.server->telemetry();
    const net::FleetStats before = fleet.server->stats();
    const obs::HistogramSnapshot handleBefore =
        histogramNow(reg, "net.handle_ms");

    // Untraced phase: the whole budget, or half of it in a traced run.
    const double untracedS = args.trace ? args.seconds / 2 : args.seconds;
    PhaseResult plain = closedLoop(fleet.server->port(), corpus,
                                   *fleet.model, args.seed, untracedS,
                                   tracer);
    const net::FleetStats mid = fleet.server->stats();
    const obs::HistogramSnapshot handleMid =
        histogramNow(reg, "net.handle_ms");

    PhaseResult traced;
    if (args.trace) {
        tracer.setOn(true);
        traced = closedLoop(fleet.server->port(), corpus, *fleet.model,
                            args.seed + 1, args.seconds / 2, tracer);
        tracer.setOn(false);
    }
    const net::FleetStats after = fleet.server->stats();
    uint64_t handleCount = 0;
    const double handleMs =
        histogramMean(reg, "net.handle_ms",
                      args.trace ? handleMid : handleBefore, &handleCount);
    fleet.server->stop();
    std::remove(cachePath.c_str());

    // Correctness, outside the timed window.
    std::vector<Answer> answers = fleet.warmAnswers;
    for (const PhaseResult* p : {&plain, &traced})
        for (const ClientLog& l : p->logs)
            answers.insert(answers.end(), l.answers.begin(),
                           l.answers.end());
    size_t references = 0;
    const uint64_t mismatches =
        checkAnswers(corpus, *fleet.model, answers, &references);

    rep.phase("warmup", fleet.warmAttempted, fleet.warmFailed);
    for (const PhaseResult* p : {&plain, &traced}) {
        if (p->logs.empty())
            continue;
        rep.phase(p == &plain ? "timed" : "traced",
                  p->sum(&ClientLog::attempted),
                  p->sum(&ClientLog::attempted) - p->sum(&ClientLog::ok));
        std::printf("phase-detail %s ok=%llu overloaded=%llu "
                    "bad_request=%llu transport_or_error=%llu\n",
                    p == &plain ? "timed" : "traced",
                    (unsigned long long)p->sum(&ClientLog::ok),
                    (unsigned long long)p->sum(&ClientLog::overloaded),
                    (unsigned long long)p->sum(&ClientLog::badRequest),
                    (unsigned long long)p->sum(&ClientLog::failed));
    }
    rep.phase("check_answers", answers.size(), mismatches, false);
    std::printf("check answers=%zu references=%zu mismatches=%llu\n",
                answers.size(), references,
                (unsigned long long)mismatches);

    // Work-sharing properties of this run's traffic.
    const uint64_t okPlain = mid.ok - before.ok;
    const uint64_t hitsPlain = (mid.persistHits - before.persistHits) +
                               (mid.shardCacheHits - before.shardCacheHits);
    const double hitRate = okPlain == 0 ? 0 : double(hitsPlain) / okPlain;
    double tokens = 0;
    const size_t tokenSample = std::min<size_t>(256, corpus.queries.size());
    for (size_t qi = 0; qi < tokenSample; ++qi) {
        const net::NetRequest& req = corpus.queries[qi];
        tokens += fleet.model
                      ->encode(dfir::parseProgram(req.program).graph,
                               req.hasData ? &req.data : nullptr)
                      .length();
    }
    double forwards = 0;
    for (size_t i = 0; i < fleet.server->shardCount(); ++i)
        forwards += histogramNow(fleet.server->shard(i).telemetry(),
                                 "serve.stage.forward_ms")
                        .count;
    const double forwardsPerRequest =
        after.ok == 0 ? 0 : forwards / double(after.ok);
    std::printf("work distinct_canonical_share=%.6f hit_rate=%.6f "
                "miss_share=%.6f tokens_mean=%.3f forwards_per_request=%.6f\n",
                double(classes.size()) / double(corpus.queries.size()),
                hitRate, 1.0 - hitRate, tokens / double(tokenSample),
                forwardsPerRequest);

    if (!args.trace) {
        const std::vector<double> lat = plain.all(&ClientLog::latencyMs);
        rep.metric("setup_s", median(setupS), "s", setupS.size());
        rep.metric("peak_rss_mb", peakRssMb(), "MB", 1);
        rep.metric("ops_per_s", double(okPlain) / plain.seconds, "1/s",
                   okPlain);
        rep.metric("latency_p50_ms", quantile(lat, 0.50), "ms", lat.size());
        rep.metric("latency_p99_ms", quantile(lat, 0.99), "ms", lat.size());
        rep.info("req_per_s", double(okPlain) / plain.seconds, "1/s",
                 okPlain);
        return;
    }

    // Per-layer view of the traced phase.
    const uint64_t okTraced = after.ok - mid.ok;
    const std::vector<double> rtt = traced.all(&ClientLog::latencyMs);
    const double rttMean = meanOf(rtt);
    rep.layer("net.round_trip_ms", rttMean, "ms", rtt.size());
    rep.layer("net.handle_ms", handleMs, "ms", handleCount);
    rep.layer("net.transport_share",
              rttMean <= 0 ? 0 : 1.0 - handleMs / rttMean, "ratio",
              rtt.size());
    rep.layer("net.codec_us", meanOf(traced.all(&ClientLog::codecUs)), "us",
              traced.all(&ClientLog::codecUs).size());
    rep.layer("net.requests", double(after.requests - mid.requests), "count",
              1);
    rep.layer("net.ok", double(okTraced), "count", 1);
    rep.layer("net.overloaded", double(after.overloaded - mid.overloaded),
              "count", 1);
    rep.layer("net.bad_request", double(after.badRequest - mid.badRequest),
              "count", 1);
    rep.layer("dfir.parse_us", meanOf(traced.all(&ClientLog::parseUs)), "us",
              traced.all(&ClientLog::parseUs).size());
    rep.layer("dfir.canonical_hash_us",
              meanOf(traced.all(&ClientLog::canonUs)), "us",
              traced.all(&ClientLog::canonUs).size());
    rep.layer("dfir.distinct_canonical_share",
              double(classes.size()) / double(corpus.queries.size()),
              "ratio", corpus.queries.size());
    const uint64_t hitsTraced =
        (after.persistHits - mid.persistHits) +
        (after.shardCacheHits - mid.shardCacheHits);
    const double tracedHitRate =
        okTraced == 0 ? 0 : double(hitsTraced) / double(okTraced);
    rep.layer("cache.hit_rate", tracedHitRate, "ratio", okTraced);
    rep.layer("cache.miss_share", 1.0 - tracedHitRate, "ratio", okTraced);
    rep.layer("serve.model_calls",
              double(after.shardModelCalls - mid.shardModelCalls), "count",
              1);
    rep.layer("serve.forwards_per_request", forwardsPerRequest, "ratio",
              after.ok);
    rep.layer("model.encode_us", meanOf(traced.all(&ClientLog::encodeUs)),
              "us", traced.all(&ClientLog::encodeUs).size());
    rep.layer("model.tokens_mean", meanOf(traced.all(&ClientLog::tokens)),
              "count", traced.all(&ClientLog::tokens).size());
    const double rpsPlain = double(okPlain) / plain.seconds;
    const double rpsTraced = double(okTraced) / traced.seconds;
    rep.layer("obs.tracing_overhead",
              rpsPlain <= 0 ? 0 : 1.0 - rpsTraced / rpsPlain, "ratio", 2);
    reportTrace(tracer, args, rep);
}

} // namespace perfbench
