#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

Tail
tailPercentile(std::vector<double> values)
{
    Tail t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        // The epsilon keeps exact ranks such as 99% of 2000 from rounding
        // up through floating-point error.
        auto rank = static_cast<std::size_t>(
            std::ceil(p * double(n) / 100.0 - 1e-9));
        rank = std::clamp<std::size_t>(rank, 1, n);
        if (n - rank >= kTailBeyond) {
            t.value = values[rank - 1];
            t.percentile = p;
            t.beyond = n - rank;
            return t;
        }
    }
    t.value = values.back();
    return t;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
RequestCounts::failedFrac() const
{
    return attempted ? double(shed + unfinished) / double(attempted)
                     : 0.0;
}

double
RequestCounts::goodputPerSec(double simSeconds) const
{
    return simSeconds > 0.0 ? double(good) / simSeconds : 0.0;
}

RequestCounts
countRequests(const std::vector<aqua::workload::RequestMetrics> &metrics,
              std::uint64_t attempted, const LimitFn &metLimit)
{
    RequestCounts c;
    c.attempted = attempted;
    std::uint64_t finished = 0;
    for (const auto &m : metrics) {
        if (m.shed) {
            ++c.shed;
        } else if (m.finished()) {
            ++finished;
            if (metLimit(m))
                ++c.good;
        }
    }
    std::uint64_t accounted = finished + c.shed;
    c.unfinished = attempted > accounted ? attempted - accounted : 0;
    return c;
}

void
Digest::mix(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

void
Digest::mixDouble(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
}

std::string
tailNote(const Tail &tail)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%g, %zu beyond, n=%zu",
                  tail.percentile, tail.beyond, tail.samples);
    return buf;
}

void
printMetrics(const char *heading, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", heading);
    for (const Metric &m : metrics) {
        std::printf("  %-34s %.9g %s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!m.note.empty())
            std::printf("  (%s)", m.note.c_str());
        std::printf("\n");
    }
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // %.17g round-trips a double; non-finite values are not JSON.
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
