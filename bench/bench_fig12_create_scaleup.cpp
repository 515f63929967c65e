// Fig. 12: total time (median) for the first request when services need to
// be *created AND scaled up*. Creating the containers adds around 100 ms to
// the response time -- except for ResNet, whose large start-time variance
// swallows the difference.
#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hpp"

namespace {

void print_fig12() {
    using namespace tedge;
    using workload::TextTable;
    bench::print_header(
        "Fig. 12 -- total time (median) to CREATE + SCALE UP, 42 instances",
        "adds ~100 ms over fig. 11 -- except ResNet (no visible overhead)");

    TextTable table({"Service", "Cluster", "create+scale [s]", "scale only [s]",
                     "delta [ms]", "paper"});
    for (const auto& service_key : {"asm", "nginx", "resnet", "nginx_py"}) {
        for (const auto& cluster : {"docker", "k8s"}) {
            // Pool three seeds: at 42 concurrent deployments the CPU
            // contention between container starts adds +-0.2 s of run-to-run
            // noise, which is exactly why the paper sees "no overhead" for
            // ResNet -- the Create cost drowns in start-time variance.
            // The six replications (3 seeds x {create, scale-only}) are
            // independent simulations, so they run across the thread pool
            // and merge back in seed order.
            std::vector<bench::DeploymentExperimentOptions> runs;
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                for (const bool pre_create : {false, true}) {
                    bench::DeploymentExperimentOptions options;
                    options.cluster_kind = cluster;
                    options.service_key = service_key;
                    options.seed = seed;
                    options.pre_create = pre_create;
                    runs.push_back(options);
                }
            }
            const auto results = bench::run_deployment_replications(runs);
            sim::SampleSet with_create_samples;
            sim::SampleSet scale_only_samples;
            for (std::size_t i = 0; i < results.size(); ++i) {
                (runs[i].pre_create ? scale_only_samples : with_create_samples)
                    .merge(results[i].first_request_ms);
            }
            const double a = with_create_samples.median();
            const double b = scale_only_samples.median();
            // On Kubernetes the ~100 ms Create cost overlaps with (and
            // drowns in) the control-loop latency variance, just like the
            // paper observes for ResNet on Docker.
            const bool hidden =
                std::string(cluster) == "k8s" || std::string(service_key) == "resnet";
            table.add_row({tedge::testbed::service_by_key(service_key).display_name,
                           cluster, TextTable::num(a / 1e3, 2),
                           TextTable::num(b / 1e3, 2), TextTable::num(a - b, 0),
                           hidden ? "~0 (hidden in variance)" : "~ +100 ms"});
        }
    }
    std::cout << table.str();
}

// Traced replica of the BM_ scenario: one small create+scale-up run with
// the lifecycle tracer armed, exported as fig12.trace.json plus the
// per-phase histograms (phase.pull_ms / create_ms / scale_up_ms /
// wait_ready_ms / deploy_total_ms) in fig12.metrics.txt.
void emit_fig12_trace() {
    using namespace tedge;
    sim::Tracer tracer;
    sim::MetricsRegistry metrics;
    bench::DeploymentExperimentOptions options;
    options.cluster_kind = "docker";
    options.service_key = "asm";
    options.pre_create = false;
    options.num_services = 6;
    options.num_requests = 150;
    options.horizon = sim::seconds(60);
    options.seed = 70;
    options.tracer = &tracer;
    options.metrics = &metrics;
    const auto result = bench::run_deployment_experiment(options);
    std::cout << "\ntraced run: " << result.first_request_ms.count()
              << " cold + " << result.warm_request_ms.count()
              << " warm requests, " << result.failures << " failures\n";
    bench::write_trace_artifacts("fig12", tracer, metrics);
}

void BM_CreateScaleUpDockerAsm(benchmark::State& state) {
    std::uint64_t seed = 70;
    for (auto _ : state) {
        tedge::bench::DeploymentExperimentOptions options;
        options.cluster_kind = "docker";
        options.service_key = "asm";
        options.pre_create = false;
        options.num_services = 6;
        options.num_requests = 150;
        options.horizon = tedge::sim::seconds(60);
        options.seed = seed++;
        auto result = tedge::bench::run_deployment_experiment(options);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_CreateScaleUpDockerAsm)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    if (tedge::bench::trace_only_mode()) {
        emit_fig12_trace(); // CI artifact path: skip table + benchmark loops
        return 0;
    }
    print_fig12();
    // Opt-in (TEDGE_TRACE=1): keeps the default output byte-identical
    // across runs with tracing disabled.
    if (tedge::bench::trace_requested()) emit_fig12_trace();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
