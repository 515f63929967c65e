#include "common.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>

#include "simcore/thread_pool.hpp"
#include "workload/runner.hpp"

namespace tedge::bench {
namespace {

testbed::C3Options base_options(const DeploymentExperimentOptions& options) {
    testbed::C3Options c3;
    c3.seed = options.seed;
    c3.with_docker = options.cluster_kind == "docker";
    c3.with_k8s = options.cluster_kind == "k8s";
    c3.controller.scheduler = sdn::kProximityScheduler;
    // Keep instances warm for the whole trace (the paper's runs do not
    // scale services down mid-experiment).
    c3.controller.flow_memory.idle_timeout = sim::seconds(900);
    c3.controller.flow_memory.scan_period = sim::seconds(60);
    c3.controller.scale_down_idle = false;
    c3.controller.dispatcher.switch_idle_timeout = sim::seconds(900);
    c3.controller.fidelity = fidelity_from_env();
    return c3;
}

} // namespace

void drain_phase(sim::Simulation& sim, const std::function<bool()>& done,
                 sim::SimTime slice) {
    if (done()) return; // the old polling loop would never have entered
    const sim::SimTime start = sim.now();
    sim.run_while([&] { return !done(); });
    const std::int64_t slice_ns = slice.ns();
    const std::int64_t rel = (sim.now() - start).ns();
    const std::int64_t slices = std::max<std::int64_t>(1, (rel + slice_ns - 1) / slice_ns);
    sim.run_until(start + sim::nanoseconds(slices * slice_ns));
}

std::size_t shards_from_env() {
    const char* v = std::getenv("TEDGE_SHARDS");
    if (v == nullptr || *v == '\0') return 0;
    const long parsed = std::strtol(v, nullptr, 10);
    return parsed > 0 ? static_cast<std::size_t>(parsed) : 0;
}

sdn::Fidelity fidelity_from_env() {
    const char* v = std::getenv("TEDGE_FIDELITY");
    if (v == nullptr || *v == '\0') return sdn::Fidelity::kExact;
    return sdn::fidelity_from_string(v); // throws on an unknown value
}

DeploymentExperimentResult
run_deployment_experiment(const DeploymentExperimentOptions& options) {
    DeploymentExperimentResult result;

    // Hosted mode: the testbed's kernel is domain 0 of a ShardedSimulation.
    // One site -> one domain (the partitioning rule keeps strongly-coupled
    // nodes together), and a single-domain coordinator grants that domain an
    // unbounded conservative window -- its execution is the serial kernel's,
    // so phase drains may drive the domain kernel directly and stay
    // bit-identical with the self-hosted path.
    std::unique_ptr<sim::ShardedSimulation> coordinator;
    testbed::C3Options c3 = base_options(options);
    if (options.shards >= 1) {
        sim::ShardedSimulation::Options host;
        host.seed = options.seed;
        host.shards = options.shards;
        coordinator = std::make_unique<sim::ShardedSimulation>(host);
        c3.host_sim = &coordinator->add_domain("c3-site").sim();
    }

    auto testbed = build_c3(c3);
    auto& platform = testbed->platform;
    auto* cluster = platform.clusters().front();

    if (options.tracer != nullptr) {
        options.tracer->attach(platform.simulation());
        options.tracer->enable();
    }
    if (options.metrics != nullptr) {
        platform.simulation().set_metrics(options.metrics);
    }

    const auto& service = testbed::service_by_key(options.service_key);

    // Register `num_services` copies of the service type under distinct
    // addresses (the 42 public destinations of the bigFlows trace).
    std::vector<net::ServiceAddress> addresses;
    std::vector<const orchestrator::ServiceSpec*> specs;
    for (std::uint32_t i = 0; i < options.num_services; ++i) {
        net::ServiceAddress address{net::Ipv4{203, 0, 120, 0}, service.address.port};
        address.ip = net::Ipv4{static_cast<std::uint32_t>(
            net::Ipv4{203, 0, 120, 10}.value() + i)};
        const auto& annotated = platform.register_service(address, service.yaml);
        addresses.push_back(address);
        specs.push_back(&annotated.spec);
    }

    // Pull phase up front (cached images), per figs. 11/12.
    if (options.pre_pull) {
        std::size_t remaining = specs.size();
        for (const auto* spec : specs) {
            cluster->ensure_image(*spec, [&remaining](bool ok,
                                                      const container::PullTiming&) {
                if (!ok) throw std::runtime_error("pre-pull failed");
                --remaining;
            });
        }
        drain_phase(platform.simulation(), [&] { return remaining == 0; });
    }

    // Create phase up front when measuring Scale Up only (fig. 11).
    if (options.pre_create) {
        std::size_t remaining = specs.size();
        for (const auto* spec : specs) {
            cluster->create_service(*spec, [&remaining](bool ok) {
                if (!ok) throw std::runtime_error("pre-create failed");
                --remaining;
            });
        }
        drain_phase(platform.simulation(), [&] { return remaining == 0; });
    }

    // Replay the bigFlows-like trace.
    workload::BigFlowsOptions trace_options;
    trace_options.services = options.num_services;
    trace_options.requests = options.num_requests;
    trace_options.horizon = options.horizon;
    trace_options.clients = static_cast<std::uint32_t>(testbed->clients.size());
    trace_options.seed = options.seed;
    result.trace = workload::synthesize_bigflows(trace_options);

    workload::TraceRunner runner(platform, testbed->clients);
    workload::TraceReplayOptions replay;
    replay.addresses = addresses;
    replay.request_sizes = {service.request_size};
    auto& metrics = runner.replay(result.trace, replay);

    // First request per service vs. warm requests.
    std::map<sim::SymbolId, const workload::RequestRecord*> first_by_service;
    for (const auto& record : metrics.records()) {
        auto& slot = first_by_service[record.service];
        if (slot == nullptr || record.sent < slot->sent) slot = &record;
    }
    for (const auto& record : metrics.records()) {
        if (!record.ok) {
            ++result.failures;
            continue;
        }
        if (first_by_service.at(record.service) == &record) {
            result.first_request_ms.add_time(record.time_total);
        } else {
            result.warm_request_ms.add_time(record.time_total);
        }
    }

    for (const auto& record : platform.deployment_engine().records()) {
        if (!record.ok) continue;
        result.wait_ready_ms.add_time(record.phases.wait_ready);
        result.deploy_total_ms.add_time(record.total());
        result.deployment_start_times.push_back(record.started);
    }

    // Hosted mode: hand the (drained) run back to the coordinator once --
    // run() observes no remaining user events across domains and returns,
    // confirming the window bookkeeping agrees with the serial drain.
    if (coordinator) coordinator->run();

    // Detach before the testbed (and its Simulation) is destroyed; the
    // tracer keeps its recorded spans for the caller to export.
    if (options.tracer != nullptr) options.tracer->detach();
    return result;
}

std::vector<DeploymentExperimentResult>
run_deployment_replications(const std::vector<DeploymentExperimentOptions>& options) {
    std::vector<DeploymentExperimentResult> results(options.size());
    static sim::ThreadPool pool;
    pool.parallel_for(options.size(), [&](std::size_t i) {
        results[i] = run_deployment_experiment(options[i]);
    });
    return results;
}

PullMeasurement measure_pull(const std::string& service_key, bool private_registry,
                             const std::string& pre_cached_service,
                             std::uint64_t seed) {
    testbed::C3Options c3;
    c3.seed = seed;
    c3.with_k8s = false;
    c3.use_private_registry_mirror = private_registry;
    auto testbed = build_c3(c3);
    auto& platform = testbed->platform;
    auto* cluster = testbed->docker;

    auto pull_one = [&](const testbed::TestService& service) {
        const auto& annotated =
            platform.register_service(service.address, service.yaml);
        PullMeasurement m;
        bool done = false;
        cluster->ensure_image(annotated.spec,
                              [&](bool ok, const container::PullTiming& t) {
            if (!ok) throw std::runtime_error("pull failed");
            m.pull_ms = t.duration().ms();
            m.bytes = t.bytes_downloaded;
            m.layers_downloaded = t.layers_downloaded;
            m.layers_cached = t.layers_cached;
            done = true;
        });
        drain_phase(platform.simulation(), [&] { return done; });
        return m;
    };

    if (!pre_cached_service.empty()) {
        pull_one(testbed::service_by_key(pre_cached_service));
    }
    return pull_one(testbed::service_by_key(service_key));
}

sim::SampleSet measure_warm_requests(const std::string& cluster_kind,
                                     const std::string& service_key, int requests,
                                     std::uint64_t seed) {
    testbed::C3Options c3;
    c3.seed = seed;
    c3.with_docker = cluster_kind == "docker";
    c3.with_k8s = cluster_kind == "k8s";
    c3.controller.flow_memory.idle_timeout = sim::seconds(900);
    c3.controller.dispatcher.switch_idle_timeout = sim::seconds(900);
    c3.controller.scale_down_idle = false;
    auto testbed = build_c3(c3);
    auto& platform = testbed->platform;

    const auto& service = testbed::service_by_key(service_key);
    const auto& annotated = platform.register_service(service.address, service.yaml);

    // Deploy fully and wait until ready.
    bool ready = false;
    platform.deployment_engine().ensure(
        *platform.clusters().front(), annotated.spec, {},
        [&](bool ok, const orchestrator::InstanceInfo&) { ready = ok; });
    drain_phase(platform.simulation(), [&] { return ready; });

    sim::SampleSet samples;
    int completed = 0;
    for (int i = 0; i < requests; ++i) {
        platform.simulation().schedule(
            sim::milliseconds(100) * static_cast<std::int64_t>(i),
            [&, i] {
                platform.http_request(
                    testbed->clients[static_cast<std::size_t>(i) %
                                     testbed->clients.size()],
                    service.address, service.request_size,
                    [&](const net::HttpResult& r) {
                        if (r.ok) samples.add_time(r.time_total);
                        ++completed;
                    });
            });
    }
    drain_phase(platform.simulation(), [&] { return completed >= requests; });
    return samples;
}

namespace {
bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}
} // namespace

bool trace_only_mode() { return env_flag("TEDGE_TRACE_ONLY"); }

bool trace_requested() {
    return env_flag("TEDGE_TRACE") || trace_only_mode();
}

void write_trace_artifacts(const std::string& prefix, const sim::Tracer& tracer,
                           const sim::MetricsRegistry& metrics) {
    const std::string trace_path = prefix + ".trace.json";
    const std::string metrics_path = prefix + ".metrics.txt";
    {
        std::ofstream os(trace_path);
        tracer.write_chrome_trace(os);
    }
    {
        std::ofstream os(metrics_path);
        metrics.dump(os);
    }

    // Per-phase summary straight from the spans: count / total / mean per
    // span name, in name order.
    struct Agg {
        std::uint64_t count = 0;
        double total_ms = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const auto& span : tracer.spans()) {
        if (span.instant) continue;
        auto& agg = by_name[span.name];
        ++agg.count;
        agg.total_ms += span.duration().ms();
    }
    workload::TextTable table({"span", "count", "total [ms]", "mean [ms]"});
    for (const auto& [name, agg] : by_name) {
        table.add_row({name, std::to_string(agg.count),
                       workload::TextTable::num(agg.total_ms, 1),
                       workload::TextTable::num(
                           agg.total_ms / static_cast<double>(agg.count), 2)});
    }
    std::cout << "\nper-phase spans (" << tracer.spans().size() << " total, "
              << tracer.dropped() << " dropped):\n"
              << table.str() << "trace:   " << trace_path << "\n"
              << "metrics: " << metrics_path << "\n";
}

void print_header(const std::string& experiment, const std::string& paper_claim) {
    std::cout << "\n==================================================================\n"
              << experiment << "\n"
              << "paper: " << paper_claim << "\n"
              << "==================================================================\n";
}

} // namespace tedge::bench
