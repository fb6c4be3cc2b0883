#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "sim/logging.hh"

namespace perfbench {

std::int32_t
Spans::open(const char *name, std::uint64_t id)
{
    Span s;
    s.name = name;
    s.parent = stack.empty() ? -1 : stack.back();
    s.id = id;
    s.startNs = nowNs();
    auto index = static_cast<std::int32_t>(spans.size());
    spans.push_back(s);
    stack.push_back(index);
    return index;
}

void
Spans::close(std::int32_t index)
{
    if (stack.empty() || stack.back() != index)
        aqua::sim::panic("span %d closed out of order", index);
    spans[static_cast<std::size_t>(index)].endNs = nowNs();
    stack.pop_back();
}

void
Spans::writeChromeTrace(std::ostream &out, std::size_t maxSpans) const
{
    // Spans are appended in start order, so the first one is earliest.
    std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    for (std::size_t i = 0; i < std::min(spans.size(), maxSpans); ++i) {
        const Span &s = spans[i];
        std::string_view name(s.name);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << name
            << "\",\"cat\":\"" << name.substr(0, name.find('.'))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                      double(s.startNs - origin) / 1e3,
                      double(s.endNs - s.startNs) / 1e3);
        out << buf << ",\"args\":{\"span\":" << i
            << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
    }
    out << "\n]}\n";
}

std::map<std::string, LayerTime>
reduceSpans(const std::vector<Span> &spans)
{
    // Child intervals per parent, in span order.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);

    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals clipped to [start, end].
        std::int64_t covered = 0;
        std::int64_t runStart = 0, runEnd = 0;
        bool open = false;
        for (auto [b, e] : kids) {
            b = std::max(b, s.startNs);
            e = std::min(e, s.endNs);
            if (e <= b)
                continue;
            if (open && b <= runEnd) {
                runEnd = std::max(runEnd, e);
                continue;
            }
            if (open)
                covered += runEnd - runStart;
            runStart = b;
            runEnd = e;
            open = true;
        }
        if (open)
            covered += runEnd - runStart;

        LayerTime &lt = out[s.name];
        ++lt.calls;
        std::int64_t dur = s.endNs - s.startNs;
        lt.totalS += double(dur) / 1e9;
        lt.selfS += double(dur - covered) / 1e9;
    }
    return out;
}

double
layerSelfS(const std::map<std::string, LayerTime> &reduced,
           const std::string &layer)
{
    double self = 0.0;
    for (auto it = reduced.lower_bound(layer); it != reduced.end(); ++it) {
        const std::string &name = it->first;
        if (name.compare(0, layer.size(), layer) != 0)
            break;
        if (name.size() == layer.size() || name[layer.size()] == '.')
            self += it->second.selfS;
    }
    return self;
}

std::uint64_t
layerCalls(const std::map<std::string, LayerTime> &reduced,
           const std::string &name)
{
    auto it = reduced.find(name);
    return it == reduced.end() ? 0 : it->second.calls;
}

double
layerTotalS(const std::map<std::string, LayerTime> &reduced,
            const std::string &name)
{
    auto it = reduced.find(name);
    return it == reduced.end() ? 0.0 : it->second.totalS;
}

} // namespace perfbench
