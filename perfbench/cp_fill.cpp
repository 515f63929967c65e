// cp-fill-sharded: the sharded control plane. Four edge domains, each a
// sdn::ControlPlaneShard fed by its own PoissonStream::shard_options share,
// plus a controller domain aggregating digests over 25 ms cut links, run
// under sim::ShardedSimulation. Every arrival is a distinct client, so each
// packet-in misses and installs: the FlowMemory grows far past the caches.
// The fill is followed by the idle-expiry sweep that drains it again.
//
// Each shard records its host-time samples into its own storage (a lane
// owns its domains for the whole run); they are merged after run().
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "net/address.hpp"
#include "sdn/control_plane_shard.hpp"
#include "simcore/sharded_simulation.hpp"
#include "workload/stream.hpp"

namespace tedge::perfbench {
namespace {

constexpr std::size_t kEdgeDomains = 4;
constexpr std::uint32_t kServices = 8;
constexpr std::uint32_t kClusters = 2;
constexpr std::size_t kFlows = 1'000'000;
/// Simulated span of the fill; shorter than the default 60 s FlowMemory idle
/// timeout, so every installed flow is still live when the fill ends.
constexpr double kFillSeconds = 30;
constexpr sim::SimTime kAccessLatency = sim::milliseconds(25);
/// One packet-in in this many is timed (clock reads cost ~tens of ns).
constexpr std::size_t kSampleEvery = 64;

double percentile(std::vector<double>& samples, double p) {
    if (samples.empty()) return 0;
    std::sort(samples.begin(), samples.end());
    return samples[static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1))];
}

/// Lane accounting of one run call, as fractions of lanes x wall time.
struct LaneTotals {
    double wall_lane_ns = 0;
    double busy_ns = 0;
    double blocked_ns = 0;
    double parked_ns = 0;
    std::uint64_t windows = 0;
    std::uint64_t parks = 0;

    void add(const sim::ShardedSimulation& sharded, double wall_s) {
        const auto& lanes = sharded.lane_stats();
        wall_lane_ns += wall_s * 1e9 * static_cast<double>(lanes.size());
        for (const auto& lane : lanes) {
            busy_ns += static_cast<double>(lane.busy_ns);
            blocked_ns += static_cast<double>(lane.blocked_ns);
            parked_ns += static_cast<double>(lane.parked_ns);
            windows += lane.windows;
            parks += lane.parks;
        }
    }
    [[nodiscard]] double frac(double ns) const {
        return wall_lane_ns > 0 ? ns / wall_lane_ns : 0.0;
    }
};

} // namespace

Report run_cp_fill_sharded(const RunOptions& options) {
    Report report;
    const auto setup_start = Clock::now();

    sim::ShardedSimulation::Options kernel;
    kernel.seed = options.seed;
    kernel.lookahead = kAccessLatency;
    kernel.workers = options.lanes != 0
                         ? options.lanes
                         : std::min<std::size_t>(
                               kEdgeDomains, std::max(1u, std::thread::hardware_concurrency()));
    sim::ShardedSimulation sharded(kernel);

    std::vector<sim::Domain*> edges;
    for (std::size_t s = 0; s < kEdgeDomains; ++s) {
        edges.push_back(&sharded.add_domain("edge" + std::to_string(s)));
    }
    sim::Domain& controller = sharded.add_domain("controller");
    sdn::ControlPlaneAggregator aggregator(controller);

    std::vector<std::string> service_names;
    std::vector<net::ServiceAddress> addresses;
    for (std::uint32_t s = 0; s < kServices; ++s) {
        service_names.push_back("svc" + std::to_string(s));
        addresses.push_back(net::ServiceAddress{net::Ipv4{0x0a000000u + s}, 80,
                                                net::Proto::kTcp});
    }
    std::vector<std::string> cluster_names;
    for (std::uint32_t c = 0; c < kClusters; ++c) {
        cluster_names.push_back("edge" + std::to_string(c));
    }

    workload::PoissonStream::Options base;
    base.services = kServices;
    base.clients = 1024;
    base.limit = kFlows;
    base.total_rate_per_s = static_cast<double>(kFlows) / kFillSeconds;
    base.seed = options.seed;

    // One cache line per shard: lanes write their own shard's counters and
    // samples concurrently.
    struct alignas(64) Shard {
        std::unique_ptr<sdn::ControlPlaneShard> plane;
        std::unique_ptr<workload::PoissonStream> stream;
        std::unique_ptr<workload::StreamPump> pump;
        std::size_t installed = 0;
        std::vector<double> packet_in_ns;
    };
    std::vector<Shard> shards(kEdgeDomains);
    for (std::size_t s = 0; s < kEdgeDomains; ++s) {
        auto& shard = shards[s];
        shard.plane = std::make_unique<sdn::ControlPlaneShard>(
            *edges[s], aggregator, sdn::ControlPlaneShard::Config{});
        const auto share = workload::PoissonStream::shard_options(
            base, static_cast<std::uint32_t>(s), kEdgeDomains);
        shard.plane->memory().reserve(share.limit);
        shard.packet_in_ns.reserve(share.limit / kSampleEvery + 1);
        shard.stream = std::make_unique<workload::PoissonStream>(share);
        // Disjoint client-ip blocks: a shard only sees the clients homed at
        // its site, and every arrival is a new flow.
        const std::uint32_t ip_base =
            0xc0000000u + static_cast<std::uint32_t>(s) * 0x01000000u;
        shard.pump = std::make_unique<workload::StreamPump>(
            edges[s]->sim(), *shard.stream,
            [&shard, ip_base, &addresses, &service_names, &cluster_names](
                const workload::TraceEvent& event,
                const std::optional<workload::TraceEvent>& next) {
                if (next) {
                    shard.plane->memory().prefetch(
                        net::Ipv4{ip_base + static_cast<std::uint32_t>(shard.installed) + 1},
                        addresses[next->service]);
                }
                const net::Ipv4 client_ip{ip_base +
                                          static_cast<std::uint32_t>(shard.installed)};
                const bool sampled = shard.installed % kSampleEvery == 0;
                const auto start = sampled ? Clock::now() : Clock::time_point{};
                shard.plane->packet_in(client_ip, addresses[event.service],
                                       service_names[event.service],
                                       net::NodeId{event.service}, 8000,
                                       cluster_names[event.client % kClusters]);
                if (sampled) {
                    shard.packet_in_ns.push_back(
                        std::chrono::duration<double, std::nano>(Clock::now() - start)
                            .count());
                }
                ++shard.installed;
            });
    }

    std::vector<const sim::Tracer*> tracers;
    if (options.traced) {
        for (std::size_t d = 0; d < sharded.domain_count(); ++d) {
            auto& domain = sharded.domain(static_cast<sim::DomainId>(d));
            domain.enable_metrics();
            domain.enable_tracing();
            tracers.push_back(&domain.tracer());
        }
    }
    for (auto& shard : shards) {
        shard.plane->start();
        shard.pump->start();
    }

    const auto fill_start = Clock::now();
    sharded.run();  // drains every pump; digest daemons ride along
    const double fill_s = seconds_since(fill_start);
    LaneTotals lanes;
    lanes.add(sharded, fill_s);
    const std::uint64_t fill_events = sharded.events_executed();

    std::uint64_t installed = 0;
    std::uint64_t peak_flows = 0;
    std::vector<double> packet_in_ns;
    for (const auto& shard : shards) {
        installed += shard.installed;
        peak_flows += shard.plane->memory().size();
        packet_in_ns.insert(packet_in_ns.end(), shard.packet_in_ns.begin(),
                            shard.packet_in_ns.end());
    }

    const sdn::FlowMemory::Config memory_config;
    const auto expire_start = Clock::now();
    sharded.run_until(sharded.now() + memory_config.idle_timeout +
                      memory_config.scan_period * 3);
    const double expire_s = seconds_since(expire_start);
    lanes.add(sharded, expire_s);

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t final_flows = 0;
    std::uint64_t idle_notifications = 0;
    std::uint64_t packet_ins = 0;
    for (const auto& shard : shards) {
        hits += shard.plane->memory().hits();
        misses += shard.plane->memory().misses();
        final_flows += shard.plane->memory().size();
        idle_notifications += shard.plane->idle_notifications();
        packet_ins += shard.plane->packet_ins();
    }

    report.attempted = kFlows;
    report.resolved = installed;
    report.failed = 0;
    auto& m = report.metrics;
    m["setup_s"] = std::chrono::duration<double>(fill_start - setup_start).count();
    m["req_per_host_s"] = static_cast<double>(installed) / fill_s;
    m["failed_frac"] = 0.0;
    m["completed_frac"] = static_cast<double>(installed) / static_cast<double>(kFlows);

    m["simcore.events"] = static_cast<double>(fill_events);
    m["simcore.events_per_req"] =
        static_cast<double>(fill_events) / static_cast<double>(installed);
    m["simcore.host_ns_per_event"] = fill_s * 1e9 / static_cast<double>(fill_events);
    std::uint64_t refiled = 0;
    for (std::size_t d = 0; d < sharded.domain_count(); ++d) {
        refiled += sharded.domain(static_cast<sim::DomainId>(d)).sim().wheel_cascade_stats().refiled;
    }
    m["simcore.wheel_refiles_per_event"] =
        static_cast<double>(refiled) / static_cast<double>(sharded.events_executed());

    m["sync.windows"] = static_cast<double>(lanes.windows);
    m["sync.null_messages"] = static_cast<double>(sharded.null_messages());
    m["sync.wakeups"] = static_cast<double>(sharded.lane_wakeups());
    m["sync.parks"] = static_cast<double>(lanes.parks);
    m["sync.lane_busy_frac"] = lanes.frac(lanes.busy_ns);
    m["sync.lane_blocked_frac"] = lanes.frac(lanes.blocked_ns);
    m["sync.lane_parked_frac"] = lanes.frac(lanes.parked_ns);

    m["sdn.memory_hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(std::max<std::uint64_t>(1, hits + misses));
    m["sdn.flow_memory_flows"] = static_cast<double>(peak_flows);
    m["sdn.packet_in_host_ns_p50"] = percentile(packet_in_ns, 0.50);
    m["sdn.packet_in_host_ns_p99"] = percentile(packet_in_ns, 0.99);
    m["sdn.expire_host_s"] = expire_s;
    m["sdn.idle_notifications"] = static_cast<double>(idle_notifications);

    if (options.traced) {
        sim::MetricsRegistry merged;
        for (std::size_t d = 0; d < sharded.domain_count(); ++d) {
            merged.merge_from(sharded.domain(static_cast<sim::DomainId>(d)).metrics());
        }
        add_trace_metrics(report, tracers, merged);
    }

    report.add_digest("flows_attempted", kFlows);
    report.add_digest("packet_ins", packet_ins);
    report.add_digest("recall_hits", hits);
    report.add_digest("recall_misses", misses);
    report.add_digest("peak_flow_memory_flows", peak_flows);
    report.add_digest("flow_memory_flows", final_flows);
    report.add_digest("idle_notifications", idle_notifications);
    report.add_digest("digests_received", aggregator.digests_received());
    report.add_digest("aggregated_idle_notifications",
                      aggregator.total_idle_notifications());
    report.add_digest("events_executed", sharded.events_executed());
    report.add_digest("final_sim_ns", static_cast<std::uint64_t>(sharded.now().ns()));
    m["peak_rss_mb"] = peak_rss_mb();
    return report;
}

} // namespace tedge::perfbench
