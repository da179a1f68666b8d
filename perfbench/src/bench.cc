#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

Clock::time_point g_processStart = Clock::now();

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = val != "0";
        else if (key == "--workdir")
            a.workdir = val;
        else if (key == "--source")
            a.source = val;
        else
            throw std::runtime_error("unknown argument " + key);
    }
    if ((argc - 1) % 2 != 0)
        throw std::runtime_error("arguments come in --key value pairs");
    if (a.seconds <= 0)
        throw std::runtime_error("--seconds must be positive");
    return a;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    size_t rank = static_cast<size_t>(std::ceil(q * double(xs.size())));
    rank = std::min(std::max<size_t>(rank, 1), xs.size());
    return xs[rank - 1];
}

double
median(const std::vector<double>& xs)
{
    return quantile(xs, 0.5);
}

double
meanOf(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0;
    double s = 0;
    for (double x : xs)
        s += x;
    return s / double(xs.size());
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

bool
samePrediction(const llmulator::model::NumericPrediction& a,
               const llmulator::model::NumericPrediction& b)
{
    return a.value == b.value && a.digits == b.digits &&
           a.digitProbs == b.digitProbs && a.logProb == b.logProb;
}

llmulator::obs::HistogramSnapshot
histogramNow(const llmulator::obs::Registry& reg, const std::string& name)
{
    const llmulator::obs::Histogram* h = reg.findHistogram(name);
    return h ? h->snapshot() : llmulator::obs::HistogramSnapshot{};
}

void
nnGemmTotals(uint64_t* calls, uint64_t* flops)
{
    auto endsWith = [](const std::string& s, const char* suffix) {
        const size_t n = std::strlen(suffix);
        return s.size() > n && s.compare(s.size() - n, n, suffix) == 0;
    };
    *calls = *flops = 0;
    for (const auto& row : llmulator::obs::registry().rows("nn.")) {
        if (endsWith(row.name, ".calls"))
            *calls += uint64_t(row.value);
        else if (endsWith(row.name, ".flops"))
            *flops += uint64_t(row.value);
    }
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit, size_t n)
{
    std::printf("metric %s %.17g %s n=%zu\n", name.c_str(), value,
                unit.c_str(), n);
}

void
Report::layer(const std::string& name, double value,
              const std::string& unit, size_t n)
{
    std::printf("layer %s %.17g %s n=%zu\n", name.c_str(), value,
                unit.c_str(), n);
}

void
Report::info(const std::string& name, double value, const std::string& unit,
             size_t n)
{
    std::printf("info %s %.17g %s n=%zu\n", name.c_str(), value,
                unit.c_str(), n);
}

void
Report::phase(const std::string& name, uint64_t attempted, uint64_t failed,
              bool total)
{
    std::printf("phase %s attempted=%llu succeeded=%llu failed=%llu\n",
                name.c_str(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(attempted - failed),
                static_cast<unsigned long long>(failed));
    if (total)
        attempted_ += attempted;
    failed_ += failed;
}

void
Report::finish()
{
    std::printf("result correct=%d attempted=%llu failed=%llu\n",
                failed_ == 0 ? 1 : 0,
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::fflush(stdout);
}

uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lk(mu_);
    return ++next_;
}

void
Tracer::record(Span s)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lk(mu_);
    // Children of one span are sequential calls on one thread, so their
    // intervals do not overlap and their durations simply add up.
    std::unordered_map<uint64_t, double> childMs;
    for (const Span& s : spans_)
        if (s.parent != 0)
            childMs[s.parent] += msBetween(s.start, s.end);
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        auto it = childMs.find(s.id);
        self[layer] += msBetween(s.start, s.end) -
                       (it == childMs.end() ? 0.0 : it->second);
    }
    return self;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

void
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream os(path, std::ios::trunc);
    if (spans_.empty())
        return;
    const Clock::time_point t0 = spans_.front().start;
    for (const Span& s : spans_) {
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request
           << ",\"start_us\":" << usBetween(t0, s.start)
           << ",\"end_us\":" << usBetween(t0, s.end) << "}\n";
    }
}

ScopedSpan::ScopedSpan(Tracer& t, const char* name, uint64_t request,
                       uint64_t parent)
    : t_(t), name_(name), request_(request), parent_(parent)
{
    if (!t_.on())
        return;
    id_ = t_.nextId();
    start_ = Clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (!t_.on() || id_ == 0)
        return;
    t_.record({name_, id_, parent_, request_, start_, Clock::now()});
}

void
reportTrace(const Tracer& t, const Args& args, Report& rep)
{
    static const char* const kLayers[] = {
        "net",   "dfir",    "serve", "model", "nn",  "harness",
        "calib", "sim",     "synth", "eval",  "obs"};
    const std::map<std::string, double> self = t.selfMsByLayer();
    double total = 0;
    for (const auto& kv : self)
        total += kv.second;
    for (const char* layer : kLayers) {
        auto it = self.find(layer);
        double ms = it == self.end() ? 0.0 : it->second;
        rep.layer(std::string("self_share.") + layer,
                  total <= 0 ? 0.0 : ms / total, "ratio", t.size());
    }
    t.write(args.workdir + "/trace_" + args.workload + ".jsonl");
}

} // namespace perfbench
