// Fig. 9: distribution of 1708 requests to 42 edge services over five
// minutes (regenerated from the published marginals of bigFlows.pcap).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "simcore/histogram.hpp"
#include "workload/bigflows.hpp"

namespace {

void print_fig09() {
    using namespace tedge;
    bench::print_header(
        "Fig. 9 -- request distribution over the five-minute trace",
        "1708 requests to 42 services; every service receives >= 20 requests; "
        "heavy-tailed popularity");

    const auto trace = workload::synthesize_bigflows({});
    const auto per_service = trace.requests_per_service();

    std::cout << "requests: " << trace.size() << " services: " << per_service.size()
              << " horizon: " << trace.horizon().seconds() << "s\n";
    const auto minmax = std::minmax_element(per_service.begin(), per_service.end());
    std::cout << "requests per service: min=" << *minmax.first
              << " max=" << *minmax.second << "\n\n";

    sim::TimeSeriesBins bins(sim::seconds(300), sim::seconds(10));
    for (const auto& event : trace.events()) bins.add(event.at);
    std::cout << "requests per 10 s bucket:\n" << bins.ascii(50) << "\n";

    workload::TextTable table({"service rank", "requests"});
    auto sorted = per_service;
    std::sort(sorted.rbegin(), sorted.rend());
    for (std::size_t i = 0; i < sorted.size(); i += 7) {
        table.add_row({std::to_string(i + 1), std::to_string(sorted[i])});
    }
    std::cout << "\npopularity (sorted, every 7th rank):\n" << table.str();
}

// Traced replay of the fig. 9 workload (42 services / 1708 requests / 5 min)
// against the C3 testbed, exported as fig09.trace.json + fig09.metrics.txt
// (per-phase histograms plus the request-level workload.request_ms one).
void emit_fig09_trace() {
    using namespace tedge;
    sim::Tracer tracer;
    sim::MetricsRegistry metrics;
    bench::DeploymentExperimentOptions options; // fig-9 defaults
    options.tracer = &tracer;
    options.metrics = &metrics;
    const auto result = bench::run_deployment_experiment(options);
    std::cout << "\ntraced run: " << result.first_request_ms.count()
              << " cold + " << result.warm_request_ms.count()
              << " warm requests, " << result.failures << " failures\n";
    bench::write_trace_artifacts("fig09", tracer, metrics);
}

void BM_SynthesizeBigFlows(benchmark::State& state) {
    std::uint64_t seed = 1;
    for (auto _ : state) {
        tedge::workload::BigFlowsOptions options;
        options.seed = seed++;
        auto trace = tedge::workload::synthesize_bigflows(options);
        benchmark::DoNotOptimize(trace);
    }
}
BENCHMARK(BM_SynthesizeBigFlows);

void BM_ZipfSample(benchmark::State& state) {
    tedge::sim::Rng rng(7);
    tedge::sim::ZipfDistribution zipf(42, 0.9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf.sample(rng));
    }
}
BENCHMARK(BM_ZipfSample);

} // namespace

int main(int argc, char** argv) {
    if (tedge::bench::trace_only_mode()) {
        emit_fig09_trace(); // CI artifact path: skip table + benchmark loops
        return 0;
    }
    print_fig09();
    // Opt-in (TEDGE_TRACE=1): keeps the default output byte-identical
    // across runs with tracing disabled.
    if (tedge::bench::trace_requested()) emit_fig09_trace();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
