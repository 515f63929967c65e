// Shared plumbing of the perfbench harness: one repetition of one workload
// produces a Report -- a digest of simulated results that must repeat
// exactly, plus host-time and per-layer metrics -- which main.cpp prints as
// one JSON line for run.py to aggregate.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "simcore/metrics_registry.hpp"
#include "simcore/tracer.hpp"

namespace tedge::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/// VmHWM (peak resident set) of this process in MiB; 0 if unreadable.
[[nodiscard]] double peak_rss_mb();

struct RunOptions {
    std::uint64_t seed = 1;
    /// Attach a sim::Tracer + sim::MetricsRegistry for the measured phase.
    bool traced = false;
    /// cp-fill-sharded only: ShardedSimulation worker threads (and so
    /// lanes); 0 = the workload's default, min(4, nproc).
    std::size_t lanes = 0;
};

struct Report {
    /// Simulated results in a fixed field order. Values are exact integer
    /// text, so equality is byte equality.
    std::vector<std::pair<std::string, std::string>> digest;
    /// Metric name -> value (end-to-end and per-layer alike).
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;  ///< simulated requests (or flows) issued
    std::uint64_t resolved = 0;   ///< of those, the ones that got an outcome
    std::uint64_t failed = 0;     ///< resolved with a simulated failure

    void add_digest(std::string field, std::uint64_t value) {
        digest.emplace_back(std::move(field), std::to_string(value));
    }
};

[[nodiscard]] Report run_c3_docker_steady(const RunOptions& options);
[[nodiscard]] Report run_c3_k8s_churn(const RunOptions& options);
[[nodiscard]] Report run_cp_fill_sharded(const RunOptions& options);

/// Fill the trace.* metrics -- span and drop counts, and per span name the
/// mean self sim-time trace.self_sim_ms.<name> -- plus the registry counters
/// k8s.binds / k8s.pods_started. Self time of a span is its duration minus
/// the union of its children's intervals.
void add_trace_metrics(Report& report, const std::vector<const sim::Tracer*>& tracers,
                       const sim::MetricsRegistry& registry);

} // namespace tedge::perfbench
