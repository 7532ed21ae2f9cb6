/**
 * @file
 * Benchmark program support code (see support.h).
 */

#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

speclens::core::ServiceConfig
serveServiceConfig()
{
    speclens::core::ServiceConfig config;
    config.characterization.instructions = 15'000;
    config.characterization.warmup = 5'000;
    config.characterization.jobs = 2;
    return config;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::string
jsonString(const std::string &text)
{
    return speclens::serve::jsonQuote(text);
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

// ----- Report ---------------------------------------------------------

void
Report::metric(const std::string &name, const std::string &unit,
               double value)
{
    metrics_[name] = Metric{unit, value};
}

bool
Report::check(bool pass, const std::string &what)
{
    ++attempted_;
    if (!pass) {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(what);
    }
    return pass;
}

void
Report::detail(const std::string &key, const std::string &json)
{
    details_[key] = json;
}

std::string
Report::render(const Options &options) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        os << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit)
           << "}";
        first = false;
    }
    os << "}, \"detail\": {\"workload\": " << jsonString(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << jsonNumber(options.seconds)
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"build\": {\"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"lto\": " << jsonString(PERFBENCH_LTO) << ", \"metrics\": "
       << jsonString(speclens::obs::kMetricsEnabled ? "ON" : "OFF")
       << "}, \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        os << (i ? ", " : "") << jsonString(failures_[i]);
    os << "]";
    for (const auto &[key, json] : details_)
        os << ", " << jsonString(key) << ": " << json;
    os << "}}";
    return os.str();
}

// ----- Tracer ---------------------------------------------------------

Tracer::Scope::Scope(Tracer &tracer, const char *name, std::uint64_t request)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    SpanRecord span;
    span.name = name;
    span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    span.request = request;
    index_ = static_cast<long>(tracer_.spans_.size());
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
    tracer_.spans_.back().start_ns = speclens::obs::nowNs();
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end_ns =
        speclens::obs::nowNs();
    tracer_.open_.pop_back();
}

const std::string &
Tracer::rootName(std::size_t index) const
{
    while (spans_[index].parent >= 0)
        index = static_cast<std::size_t>(spans_[index].parent);
    return spans_[index].name;
}

std::vector<double>
Tracer::durations(const std::string &name, const std::string &root) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && (root.empty() || rootName(i) == root))
            out.push_back(spans_[i].seconds());
    return out;
}

double
Tracer::total(const std::string &name, const std::string &root) const
{
    double sum = 0.0;
    for (double d : durations(name, root))
        sum += d;
    return sum;
}

std::vector<std::uint64_t>
Tracer::requests(const std::string &name, const std::string &root) const
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name && (root.empty() || rootName(i) == root))
            out.push_back(spans_[i].request);
    return out;
}

// ----- LayerTable -----------------------------------------------------

LayerTable
LayerTable::build(const std::vector<SpanRecord> &spans, double wall_seconds)
{
    LayerTable table;
    table.wall_seconds = wall_seconds;
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].seconds();
    for (const SpanRecord &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.seconds();

    auto isBench = [&](long index) {
        return index >= 0 &&
               spans[static_cast<std::size_t>(index)].name.rfind("bench.", 0) ==
                   0;
    };
    double attributed = 0.0;
    double outermost = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        table.min_self_seconds = std::min(table.min_self_seconds, self[i]);
        if (isBench(static_cast<long>(i)))
            continue;
        const std::string &name = spans[i].name;
        table.self_seconds[name.substr(0, name.find('.'))] += self[i];
        attributed += self[i];
        if (spans[i].parent < 0 || isBench(spans[i].parent))
            outermost += spans[i].seconds();
    }
    table.unattributed_seconds = wall_seconds - attributed;
    table.self_sum_error_seconds = std::fabs(attributed - outermost);
    return table;
}

std::string
LayerTable::json() const
{
    std::ostringstream os;
    os << "{\"wall_s\": " << jsonNumber(wall_seconds)
       << ", \"unattributed_s\": " << jsonNumber(unattributed_seconds)
       << ", \"self_sum_error_s\": " << jsonNumber(self_sum_error_seconds)
       << ", \"min_self_s\": " << jsonNumber(min_self_seconds)
       << ", \"layers\": {";
    bool first = true;
    for (const auto &[layer, seconds] : self_seconds) {
        os << (first ? "" : ", ") << jsonString(layer) << ": {\"self_s\": "
           << jsonNumber(seconds) << ", \"share\": "
           << jsonNumber(wall_seconds > 0 ? seconds / wall_seconds : 0.0)
           << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
spansJson(const std::vector<SpanRecord> &spans, std::uint64_t origin_ns)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << (i ? ", " : "") << "{\"name\": " << jsonString(s.name)
           << ", \"start_us\": " << (s.start_ns - origin_ns) / 1000
           << ", \"end_us\": " << (s.end_ns - origin_ns) / 1000
           << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << "}";
    }
    os << "]";
    return os.str();
}

// ----- ProcSample -----------------------------------------------------

ProcSample
ProcSample::read()
{
    ProcSample sample;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        std::istringstream fields(line);
        std::string key;
        double value = 0.0;
        fields >> key >> value;
        if (key == "VmSize:")
            sample.vmsize_mb = value / 1024.0;
        else if (key == "VmHWM:")
            sample.vmhwm_mb = value / 1024.0;
        else if (key == "VmRSS:")
            sample.vmrss_mb = value / 1024.0;
        else if (key == "Threads:")
            sample.threads = value;
    }
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
         !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
        sample.fds += 1.0;
    return sample;
}

std::string
ProcSample::json() const
{
    std::ostringstream os;
    os << "{\"vmsize_mb\": " << jsonNumber(vmsize_mb)
       << ", \"vmhwm_mb\": " << jsonNumber(vmhwm_mb)
       << ", \"vmrss_mb\": " << jsonNumber(vmrss_mb)
       << ", \"threads\": " << jsonNumber(threads)
       << ", \"fds\": " << jsonNumber(fds) << "}";
    return os.str();
}

// ----- RegistryDelta --------------------------------------------------

namespace {

template <typename T>
const T *
findByName(const std::vector<std::pair<std::string, T>> &items,
           const std::string &name)
{
    for (const auto &[key, value] : items)
        if (key == name)
            return &value;
    return nullptr;
}

} // namespace

RegistryDelta::RegistryDelta()
    : start_(speclens::obs::Registry::global().snapshot())
{
}

void
RegistryDelta::stop()
{
    end_ = speclens::obs::Registry::global().snapshot();
}

double
RegistryDelta::counter(const std::string &name) const
{
    const std::uint64_t *after = findByName(end_.counters, name);
    const std::uint64_t *before = findByName(start_.counters, name);
    return static_cast<double>((after ? *after : 0) - (before ? *before : 0));
}

double
RegistryDelta::timingSeconds(const std::string &name) const
{
    const speclens::obs::TimingStats *after =
        findByName(end_.timings, name);
    const speclens::obs::TimingStats *before =
        findByName(start_.timings, name);
    std::uint64_t ns =
        (after ? after->total_ns : 0) - (before ? before->total_ns : 0);
    return static_cast<double>(ns) * 1e-9;
}

} // namespace perfbench
