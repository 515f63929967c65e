// The two full-platform workloads: the paper's C3 testbed (20 clients, the
// EGS, one edge cluster) replaying an open-loop Poisson/Zipf request stream
// through the whole path -- SYN, OVS miss, packet-in, Dispatcher,
// scheduler, DeploymentEngine, cluster, probe, flow install, HTTP response.
//
//  * c3-docker-steady: Docker, paper timeouts (900 s idle, no scale-down),
//    1000 req/s. After 42 cold starts nearly every request hits an installed
//    ingress flow entry: the read side of FlowTable and FlowMemory.
//  * c3-k8s-churn: Kubernetes, default ControllerConfig (idle scale-down,
//    60 s FlowMemory, 10 s switch idle), 100 req/s, 20 clients handing over
//    among 4 cells: the same layers used for writes.
//
// Requests go through workload::HttpClient with a done callback, so every
// outcome carries its net::HttpResult and failures are counted by reason.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "simcore/stats.hpp"
#include "testbed/c3.hpp"
#include "testbed/calibration.hpp"
#include "workload/http_client.hpp"
#include "workload/mobility.hpp"
#include "workload/stream.hpp"

namespace tedge::perfbench {
namespace {

constexpr std::uint32_t kServices = 42;
constexpr double kZipf = 0.9;
/// Simulated time allowed after the last arrival before a request that has
/// not resolved counts as lost.
constexpr sim::SimTime kDrainSlack = sim::seconds(600);

struct C3Workload {
    bool k8s = false;
    double rate_per_s = 0;
    std::size_t requests = 0;
    /// Paper timeouts (bench/common.cpp): 900 s idle, no scale-down.
    /// Otherwise the default ControllerConfig.
    bool paper_timeouts = false;
    /// Extra cells the clients hand over among (0 = none).
    std::size_t extra_cells = 0;
};

/// A request stream shifted by a fixed offset: stream times are relative to
/// the first arrival, while set-up (image pre-pull) has already consumed
/// simulated time.
class OffsetStream final : public workload::RequestStream {
public:
    OffsetStream(workload::RequestStream& inner, sim::SimTime offset)
        : inner_(inner), offset_(offset) {}

    std::optional<workload::TraceEvent> next() override {
        auto event = inner_.next();
        if (event) event->at = event->at + offset_;
        return event;
    }
    [[nodiscard]] std::uint32_t service_count() const override {
        return inner_.service_count();
    }
    [[nodiscard]] std::uint32_t client_count() const override {
        return inner_.client_count();
    }
    [[nodiscard]] std::optional<std::size_t> total() const override {
        return inner_.total();
    }
    [[nodiscard]] std::optional<sim::SimTime> horizon() const override {
        return std::nullopt;
    }

private:
    workload::RequestStream& inner_;
    sim::SimTime offset_;
};

/// The mobility counterpart of OffsetStream.
class OffsetMobility final : public workload::MobilityStream {
public:
    OffsetMobility(workload::MobilityStream& inner, sim::SimTime offset)
        : inner_(inner), offset_(offset) {}

    std::optional<workload::HandoverEvent> next() override {
        auto event = inner_.next();
        if (event) event->at = event->at + offset_;
        return event;
    }
    [[nodiscard]] std::uint32_t ue_count() const override { return inner_.ue_count(); }
    [[nodiscard]] std::uint32_t cell_count() const override {
        return inner_.cell_count();
    }
    [[nodiscard]] std::uint32_t initial_cell(std::uint32_t ue) const override {
        return inner_.initial_cell(ue);
    }

private:
    workload::MobilityStream& inner_;
    sim::SimTime offset_;
};

struct Outcomes {
    std::uint64_t resolved = 0;
    std::uint64_t ok = 0;
    std::map<std::string, std::uint64_t> errors;  ///< failure reason -> count
    std::int64_t time_total_ns = 0;               ///< over every outcome
    sim::SampleSet ok_ms;

    [[nodiscard]] std::uint64_t reason(const std::string& error) const {
        const auto it = errors.find(error);
        return it == errors.end() ? 0 : it->second;
    }
};

double median_or_zero(const sim::SampleSet& samples) {
    return samples.empty() ? 0.0 : samples.median();
}

Report run_c3(const RunOptions& options, const C3Workload& spec) {
    Report report;
    const auto setup_start = Clock::now();

    testbed::C3Options c3;
    c3.seed = options.seed;
    c3.with_docker = !spec.k8s;
    c3.with_k8s = spec.k8s;
    c3.extra_gnbs = spec.extra_cells;
    if (spec.paper_timeouts) {
        c3.controller.scheduler = sdn::kProximityScheduler;
        c3.controller.flow_memory.idle_timeout = sim::seconds(900);
        c3.controller.flow_memory.scan_period = sim::seconds(60);
        c3.controller.scale_down_idle = false;
        c3.controller.dispatcher.switch_idle_timeout = sim::seconds(900);
    }
    auto testbed = testbed::build_c3(c3);
    auto& platform = testbed->platform;
    auto& sim = platform.simulation();
    auto* cluster = platform.clusters().front();

    // 42 copies of nginx under distinct addresses (the bigFlows trace's 42
    // public destinations), each registration timed on its own.
    const auto& nginx = testbed::service_by_key("nginx");
    std::vector<net::ServiceAddress> addresses;
    std::vector<const orchestrator::ServiceSpec*> specs;
    double register_s = 0;
    for (std::uint32_t i = 0; i < kServices; ++i) {
        const net::ServiceAddress address{
            net::Ipv4{net::Ipv4{203, 0, 120, 10}.value() + i}, nginx.address.port};
        const auto start = Clock::now();
        const auto& annotated = platform.register_service(address, nginx.yaml);
        register_s += seconds_since(start);
        addresses.push_back(address);
        specs.push_back(&annotated.spec);
    }

    // Images pre-pulled, instances not created (fig. 12 "Create + Scale Up").
    const auto prepull_start = Clock::now();
    std::size_t pulls_left = specs.size();
    for (const auto* s : specs) {
        cluster->ensure_image(*s, [&pulls_left](bool ok, const container::PullTiming&) {
            if (!ok) throw std::runtime_error("image pre-pull failed");
            --pulls_left;
        });
    }
    sim.run_while([&] { return pulls_left > 0; });
    if (pulls_left > 0) throw std::runtime_error("image pre-pull did not finish");
    const double prepull_s = seconds_since(prepull_start);

    // Cells: every client is in radio range of every cell (overlapping
    // cells); the mobility trace decides which one it is attached to.
    std::vector<net::OvsSwitch*> cells{&platform.ingress()};
    for (auto* gnb : testbed->gnbs) cells.push_back(gnb);
    const sim::SimTime offset = sim.now();
    const double horizon_s = static_cast<double>(spec.requests) / spec.rate_per_s;
    std::unique_ptr<workload::WaypointMobility> waypoints;
    std::unique_ptr<OffsetMobility> mobility;
    std::unique_ptr<workload::MobilityPump> mobility_pump;
    if (cells.size() > 1) {
        workload::WaypointMobility::Options m;
        m.ues = static_cast<std::uint32_t>(testbed->clients.size());
        m.cells = static_cast<std::uint32_t>(cells.size());
        m.horizon = sim::from_seconds(horizon_s);
        m.seed = options.seed;
        waypoints = std::make_unique<workload::WaypointMobility>(m);
        for (std::uint32_t ue = 0; ue < m.ues; ++ue) {
            const auto client = testbed->clients[ue];
            for (std::size_t c = 1; c < cells.size(); ++c) {
                platform.topology().add_link(client, cells[c]->node(),
                                             testbed::calibration::kClientLinkLatency,
                                             sim::gbit_per_sec(
                                                 testbed::calibration::kClientGbps));
            }
            platform.handover_client(client, *cells[waypoints->initial_cell(ue)]);
        }
        mobility = std::make_unique<OffsetMobility>(*waypoints, offset);
        mobility_pump = std::make_unique<workload::MobilityPump>(
            sim, *mobility, [&](const workload::HandoverEvent& event) {
                platform.handover_client(testbed->clients[event.ue],
                                         *cells[event.to_cell]);
            });
    }

    std::unique_ptr<sim::Tracer> tracer;
    sim::MetricsRegistry registry;
    if (options.traced) {
        tracer = std::make_unique<sim::Tracer>(sim);
        tracer->enable();
        sim.set_metrics(&registry);
    }

    // Open loop: arrivals are scheduled in simulated time whatever the
    // completions, so the generator is never late.
    workload::PoissonStream::Options arrivals;
    arrivals.services = kServices;
    arrivals.clients = static_cast<std::uint32_t>(testbed->clients.size());
    arrivals.zipf_s = kZipf;
    arrivals.total_rate_per_s = spec.rate_per_s;
    arrivals.limit = spec.requests;
    arrivals.seed = options.seed;
    workload::PoissonStream poisson(arrivals);
    OffsetStream stream(poisson, offset);

    workload::MetricsCollector collector;
    workload::HttpClient client(platform.network(), collector);
    std::vector<std::string> tags;
    for (std::uint32_t s = 0; s < kServices; ++s) tags.push_back("svc" + std::to_string(s));

    Outcomes outcomes;
    std::uint64_t issued = 0;
    Clock::time_point first_arrival{};
    std::uint64_t events_at_first = 0;
    workload::StreamPump pump(
        sim, stream,
        [&](const workload::TraceEvent& event, const std::optional<workload::TraceEvent>&) {
            if (issued++ == 0) {
                first_arrival = Clock::now();
                events_at_first = sim.events_executed();
            }
            client.request(testbed->clients[event.client], event.client,
                           addresses[event.service], nginx.request_size,
                           tags[event.service], [&outcomes](const net::HttpResult& r) {
                               ++outcomes.resolved;
                               outcomes.time_total_ns += r.time_total.ns();
                               if (r.ok) {
                                   ++outcomes.ok;
                                   outcomes.ok_ms.add_time(r.time_total);
                               } else {
                                   ++outcomes.errors[r.error];
                               }
                           });
        });
    if (mobility_pump) mobility_pump->start();
    pump.start();

    const sim::SimTime deadline = offset + sim::from_seconds(horizon_s) + kDrainSlack;
    sim.run_while([&] {
        return (!pump.done() || outcomes.resolved < issued) && sim.now() < deadline;
    });
    const double replay_s = seconds_since(first_arrival);
    const std::uint64_t replay_events = sim.events_executed() - events_at_first;
    if (tracer) tracer->detach();
    sim.set_metrics(nullptr);  // the registry dies before the testbed

    // ---- end-to-end
    report.attempted = issued;
    report.resolved = outcomes.resolved;
    report.failed = report.resolved - outcomes.ok;
    auto& m = report.metrics;
    m["setup_s"] = std::chrono::duration<double>(first_arrival - setup_start).count();
    m["req_per_host_s"] = static_cast<double>(report.resolved) / replay_s;
    m["failed_frac"] = static_cast<double>(report.failed) / static_cast<double>(issued);
    m["completed_frac"] = static_cast<double>(outcomes.ok) / static_cast<double>(issued);
    m["sim_p50_ms"] = outcomes.ok_ms.empty() ? 0.0 : outcomes.ok_ms.quantile(0.50);
    m["sim_p99_ms"] = outcomes.ok_ms.empty() ? 0.0 : outcomes.ok_ms.quantile(0.99);

    // ---- simcore
    m["simcore.events"] = static_cast<double>(replay_events);
    m["simcore.events_per_req"] =
        static_cast<double>(replay_events) / static_cast<double>(issued);
    m["simcore.host_ns_per_event"] = replay_s * 1e9 / static_cast<double>(replay_events);
    m["simcore.wheel_refiles_per_event"] =
        static_cast<double>(sim.wheel_cascade_stats().refiled) /
        static_cast<double>(sim.events_executed());

    // ---- net
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;
    std::uint64_t table_entries = 0;
    std::uint64_t packet_ins = 0;
    for (const auto* cell : cells) {
        table_hits += cell->table().hit_count();
        table_misses += cell->table().miss_count();
        table_entries += cell->table().size();
        packet_ins += cell->packet_in_count();
    }
    const std::uint64_t refused = outcomes.reason("connection refused");
    const std::uint64_t dropped =
        outcomes.reason("packet dropped (no route to destination)");
    m["net.packet_ins"] = static_cast<double>(packet_ins);
    m["net.flow_table_hit_ratio"] =
        static_cast<double>(table_hits) /
        static_cast<double>(std::max<std::uint64_t>(1, table_hits + table_misses));
    m["net.flow_table_entries"] = static_cast<double>(table_entries);
    m["net.refused"] = static_cast<double>(refused);
    m["net.dropped"] = static_cast<double>(dropped);

    // ---- sdn
    auto& controller = platform.controller();
    const auto& stats = controller.dispatcher().stats();
    m["sdn.memory_hit_ratio"] =
        static_cast<double>(stats.memory_hits) /
        static_cast<double>(std::max<std::uint64_t>(1, stats.packet_ins));
    m["sdn.cloud_fallbacks"] = static_cast<double>(stats.cloud_fallbacks);
    m["sdn.idle_scale_downs"] = static_cast<double>(controller.idle_scale_downs());
    m["sdn.handovers"] = static_cast<double>(stats.handovers);
    m["sdn.resteers"] = static_cast<double>(stats.resteers);
    m["sdn.flow_memory_flows"] = static_cast<double>(controller.flow_memory().size());
    m["sdn.register_host_us"] = register_s * 1e6 / kServices;

    // ---- core
    std::uint64_t deploy_ok = 0;
    std::uint64_t deploy_failed = 0;
    sim::SampleSet deploy_ms;
    sim::SampleSet wait_ready_ms;
    for (const auto& record : platform.deployment_engine().records()) {
        if (!record.ok) {
            ++deploy_failed;
            continue;
        }
        ++deploy_ok;
        deploy_ms.add_time(record.total());
        wait_ready_ms.add_time(record.phases.wait_ready);
    }
    m["core.deployments"] = static_cast<double>(deploy_ok);
    m["core.deploy_failures"] = static_cast<double>(deploy_failed);
    m["core.deploy_sim_ms_p50"] = median_or_zero(deploy_ms);
    m["core.wait_ready_sim_ms_p50"] = median_or_zero(wait_ready_ms);

    // ---- container
    m["container.prepull_host_s"] = prepull_s;

    if (tracer) add_trace_metrics(report, {tracer.get()}, registry);

    // ---- digest: simulated results only, in a fixed order
    report.add_digest("requests_attempted", issued);
    report.add_digest("outcome.ok", outcomes.ok);
    for (const auto& [reason, count] : outcomes.errors) {
        report.add_digest("outcome." + reason, count);
    }
    report.add_digest("sim_time_total_ns_sum",
                      static_cast<std::uint64_t>(outcomes.time_total_ns));
    report.add_digest("deployments", deploy_ok);
    report.add_digest("deploy_failures", deploy_failed);
    report.add_digest("flow_memory_flows", controller.flow_memory().size());
    report.add_digest("idle_scale_downs", controller.idle_scale_downs());
    report.add_digest("packet_ins", packet_ins);
    report.add_digest("handovers", stats.handovers);
    report.add_digest("final_sim_ns", static_cast<std::uint64_t>(sim.now().ns()));
    m["peak_rss_mb"] = peak_rss_mb();
    return report;
}

} // namespace

Report run_c3_docker_steady(const RunOptions& options) {
    C3Workload spec;
    spec.k8s = false;
    spec.rate_per_s = 1000;
    spec.requests = 400'000;
    spec.paper_timeouts = true;
    return run_c3(options, spec);
}

Report run_c3_k8s_churn(const RunOptions& options) {
    C3Workload spec;
    spec.k8s = true;
    spec.rate_per_s = 100;
    spec.requests = 150'000;
    spec.extra_cells = 3;
    return run_c3(options, spec);
}

} // namespace tedge::perfbench
