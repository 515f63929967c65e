#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace tedge::perfbench {

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %ld", &kb);
            return static_cast<double>(kb) / 1024.0;
        }
    }
    return 0;
}

namespace {

struct SelfTime {
    double total_ms = 0;
    std::uint64_t spans = 0;
};

/// Self time of every span of one tracer, accumulated per span name.
void accumulate_self_times(const sim::Tracer& tracer,
                           std::unordered_map<std::string, SelfTime>& by_name) {
    const auto& spans = tracer.spans();
    std::unordered_map<sim::SpanId, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

    // Child intervals per parent (closed, non-instant spans only).
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const auto& span : spans) {
        if (span.open || span.instant || span.parent == 0) continue;
        const auto it = index.find(span.parent);
        if (it == index.end()) continue;
        children[it->second].emplace_back(span.start.ns(), span.end.ns());
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& span = spans[i];
        if (span.open || span.instant) continue;
        const std::int64_t lo = span.start.ns();
        const std::int64_t hi = span.end.ns();
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t cursor = lo;
        for (auto [start, end] : kids) {
            start = std::max(start, cursor);
            end = std::min(end, hi);
            if (end > start) {
                covered += end - start;
                cursor = end;
            }
        }
        auto& slot = by_name[span.name];
        slot.total_ms += static_cast<double>(hi - lo - covered) / 1e6;
        ++slot.spans;
    }
}

} // namespace

void add_trace_metrics(Report& report, const std::vector<const sim::Tracer*>& tracers,
                       const sim::MetricsRegistry& registry) {
    std::unordered_map<std::string, SelfTime> by_name;
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
    for (const auto* tracer : tracers) {
        spans += tracer->spans().size();
        dropped += tracer->dropped();
        accumulate_self_times(*tracer, by_name);
    }
    auto& m = report.metrics;
    m["trace.spans"] = static_cast<double>(spans);
    m["trace.dropped"] = static_cast<double>(dropped);
    for (const auto& [name, self] : by_name) {
        m["trace.self_sim_ms." + name] = self.total_ms / static_cast<double>(self.spans);
    }
    for (const char* counter : {"k8s.binds", "k8s.pods_started"}) {
        const auto* c = registry.find_counter(counter);
        m[counter] = c == nullptr ? 0.0 : static_cast<double>(c->value());
    }
}

} // namespace tedge::perfbench
