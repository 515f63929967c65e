// Microbenchmarks for the framework's hot paths: event queue, flow-table
// lookup at realistic table sizes, the warm HTTP request path, scheduler
// decisions, YAML parsing, and statistics. These are real-time benchmarks of
// the simulator itself (not simulated time) -- they bound how fast
// experiments run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "container/runtime.hpp"
#include "net/flow_table.hpp"
#include "net/ovs_switch.hpp"
#include "net/tcp.hpp"
#include "sdn/schedulers/proximity.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/stats.hpp"
#include "workload/http_client.hpp"
#include "workload/metrics.hpp"
#include "yamlite/emitter.hpp"
#include "yamlite/parser.hpp"

// Every allocation in this binary goes through these replacements, so a
// benchmark can report allocations per operation next to its time.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

// The library's array forms forward to these. noinline keeps GCC from
// pairing the inlined malloc/free against the new/delete expressions at call
// sites (-Wmismatched-new-delete false positives).
__attribute__((noinline)) void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace {

using namespace tedge;

// --------------------------------------------------------------------------
// Event queue (timing wheel over a slot slab).

/// Burst fill-and-drain of n random timestamps. The window advances by one
/// second per iteration so timestamps never precede the last popped event
/// (the wheel's scheduling contract).
void BM_EventQueuePushPop(benchmark::State& state) {
    sim::EventQueue queue;
    sim::Rng rng(1);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::int64_t base = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i) {
            queue.push(sim::SimTime{base + sim::from_seconds(rng.uniform(0, 1)).ns()},
                       [] {});
        }
        while (!queue.empty()) queue.pop();
        base += 1'000'000'000;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

/// The case the wheel exists for: a large resident population of far-future
/// timers (per-flow expiry at scale) while near-term events churn through.
/// The wheel pays O(1) per push/pop because the residents sit untouched in
/// high-level buckets.
void BM_EventQueueSteadyChurn(benchmark::State& state) {
    sim::EventQueue queue;
    const auto residents = static_cast<std::size_t>(state.range(0));
    queue.reserve(residents + 2);
    sim::Rng rng(1);
    for (std::size_t i = 0; i < residents; ++i) {
        queue.push(sim::seconds(3600) + sim::from_seconds(rng.uniform(0, 3600)),
                   [] {});
    }
    std::int64_t now = 0;
    for (auto _ : state) {
        queue.push(sim::SimTime{now += 1000}, [] {});
        auto popped = queue.pop();
        benchmark::DoNotOptimize(popped.first);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyChurn)->Arg(1024)->Arg(65536)->Arg(1 << 20);

/// Growth-stall delta of EventQueue::reserve(): filling a fresh queue with n
/// events, with and without pre-sizing the slab.
void BM_EventQueueFill(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const bool reserved = state.range(1) != 0;
    for (auto _ : state) {
        sim::EventQueue queue;
        if (reserved) queue.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            queue.push(sim::SimTime{static_cast<std::int64_t>(i)}, [] {});
        }
        benchmark::DoNotOptimize(queue.size());
        queue.clear();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueFill)->Args({65536, 0})->Args({65536, 1});

void BM_SimulationNestedEvents(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulation simulation;
        int depth = 0;
        std::function<void()> chain = [&] {
            if (++depth < 1000) simulation.schedule(sim::microseconds(1), chain);
        };
        simulation.schedule(sim::microseconds(1), chain);
        simulation.run();
        benchmark::DoNotOptimize(depth);
    }
    // 1000 events scheduled and fired through the full Simulation loop.
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulationNestedEvents);

// --------------------------------------------------------------------------
// Warm HTTP request: the steady-state path of the paper's transparent access
// (client SYN, OVS table hit, destination rewrite, container endpoint, HTTP
// response, metrics record), one request at a time, run to completion.

void BM_HttpRequestWarmHit(benchmark::State& state) {
    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    const auto client = topo.add_host("client", net::Ipv4{10, 0, 1, 1});
    const auto edge = topo.add_host("edge", net::Ipv4{10, 0, 0, 2});
    const auto gnb = topo.add_switch("gnb");
    topo.add_link(client, gnb, sim::microseconds(100), sim::gbit_per_sec(1));
    topo.add_link(edge, gnb, sim::microseconds(100), sim::gbit_per_sec(10));
    net::OvsSwitch ingress(simulation, topo, gnb);
    net::TcpNet tcp(simulation, topo, ingress, endpoints);

    // A Docker-style endpoint: a running container's HTTP handler.
    container::AppProfile nginx;
    nginx.name = "nginx";
    container::ContainerRuntime runtime(simulation, topo, edge, endpoints, sim::Rng(5));
    container::ContainerConfig config;
    config.name = "nginx";
    config.app = &nginx;
    container::ContainerId id = 0;
    runtime.create(config, [&](container::ContainerId created) { id = created; });
    simulation.run();
    runtime.start(id, 8080, [] {});
    simulation.run();

    // The flow entry the controller installs after the first packet-in.
    const net::ServiceAddress vip{net::Ipv4{203, 0, 113, 1}, 80};
    net::FlowEntry entry;
    entry.match.dst_ip = vip.ip;
    entry.match.dst_port = vip.port;
    entry.action.set_dst_ip = topo.node(edge).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = edge;
    ingress.table().install(entry, simulation.now());

    workload::MetricsCollector metrics;
    workload::HttpClient http(tcp, metrics);
    std::uint64_t ok = 0;
    const std::uint64_t allocations_before = g_allocations.load();
    for (auto _ : state) {
        http.request(client, 0, vip, 100, "nginx",
                     [&ok](const net::HttpResult& r) { ok += r.ok ? 1 : 0; });
        simulation.run();
        benchmark::DoNotOptimize(ok);
        // Bound the record log; clear() keeps the vector's capacity.
        if (metrics.count() == 4096) metrics.clear();
    }
    const auto requests = static_cast<double>(state.iterations());
    state.counters["allocs_per_req"] =
        static_cast<double>(g_allocations.load() - allocations_before) / requests;
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    if (ok != static_cast<std::uint64_t>(state.iterations())) {
        state.SkipWithError("a warm request failed");
    }
}
BENCHMARK(BM_HttpRequestWarmHit);

// --------------------------------------------------------------------------
// Flow table: exact-match index and the wildcard fallback scan.

/// `n` fully-specified entries (src, dst, port, proto all concrete), the
/// shape the dispatcher installs per accepted connection.
net::FlowTable make_exact_table(std::size_t n) {
    net::FlowTable table;
    for (std::size_t i = 0; i < n; ++i) {
        net::FlowEntry entry;
        entry.match.src_ip = net::Ipv4{192, 168, static_cast<std::uint8_t>(i >> 8),
                                       static_cast<std::uint8_t>(i & 0xff)};
        entry.match.dst_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(i % 250)};
        entry.match.dst_port = 80;
        entry.match.proto = net::Proto::kTcp;
        entry.cookie = i;
        table.install(entry, sim::SimTime::zero());
    }
    return table;
}

net::Packet exact_packet(std::size_t n) {
    const std::size_t i = n / 2;
    net::Packet packet;
    packet.src_ip = net::Ipv4{192, 168, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff)};
    packet.dst_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(i % 250)};
    packet.dst_port = 80;
    packet.proto = net::Proto::kTcp;
    return packet;
}

void BM_FlowTableLookup(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    net::FlowTable table = make_exact_table(n);
    const net::Packet packet = exact_packet(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(packet, sim::SimTime::zero()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(256)->Arg(2048);

/// Same table shape, but the packet only matches a low-specificity wildcard
/// entry -- exercises the fallback scan over non-exact rules.
void BM_FlowTableLookupWildcard(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    net::FlowTable table = make_exact_table(n);
    net::FlowEntry fallback;
    fallback.match.dst_port = 8080;
    fallback.priority = 1;
    table.install(fallback, sim::SimTime::zero());
    net::Packet packet;
    packet.src_ip = net::Ipv4{172, 16, 0, 1};
    packet.dst_ip = net::Ipv4{10, 0, 0, 7};
    packet.dst_port = 8080;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(packet, sim::SimTime::zero()));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookupWildcard)->Arg(16)->Arg(256)->Arg(2048);

/// Steady install plus idle expiry at constant occupancy `n`: each iteration
/// installs one per-client entry and looks it up, and that lookup sweeps out
/// the entry installed `n` iterations earlier, whose idle timer just ran
/// out. This is the write path of a switch whose per-client entries idle out
/// and are reinstalled.
void BM_FlowTableChurn(benchmark::State& state) {
    const auto n = static_cast<std::int64_t>(state.range(0));
    const sim::SimTime step = sim::microseconds(10);
    net::FlowTable table;
    net::FlowEntry entry;
    entry.match.dst_ip = net::Ipv4{10, 0, 0, 1};
    entry.match.dst_port = 80;
    entry.match.proto = net::Proto::kTcp;
    entry.idle_timeout = sim::nanoseconds(step.ns() * n);
    net::Packet packet;
    packet.dst_ip = *entry.match.dst_ip;
    packet.dst_port = 80;
    packet.proto = net::Proto::kTcp;
    sim::SimTime now = sim::SimTime::zero();
    std::int64_t installs = 0;
    const auto churn_one = [&] {
        // 2n distinct clients, so a client returns only after its entry
        // has expired.
        const std::int64_t client = installs++ % (2 * n);
        const net::Ipv4 src{192, 168, static_cast<std::uint8_t>(client >> 8),
                            static_cast<std::uint8_t>(client & 0xff)};
        now += step;
        entry.match.src_ip = src;
        entry.cookie = static_cast<std::uint64_t>(installs);
        table.install(entry, now);
        packet.src_ip = src;
        return table.lookup(packet, now);
    };
    for (std::int64_t i = 0; i < 2 * n; ++i) churn_one(); // reach steady occupancy
    for (auto _ : state) {
        benchmark::DoNotOptimize(churn_one());
    }
    state.counters["occupancy"] = static_cast<double>(table.size());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableChurn)->Arg(256)->Arg(2048);

// --------------------------------------------------------------------------
// Everything else.

void BM_YamlParseDeployment(benchmark::State& state) {
    const std::string yaml = R"(
apiVersion: apps/v1
kind: Deployment
metadata:
  name: edge-svc
spec:
  replicas: 0
  selector:
    matchLabels:
      app: edge-svc
  template:
    metadata:
      labels:
        app: edge-svc
    spec:
      containers:
        - name: nginx
          image: nginx:1.23.2
          ports:
            - containerPort: 80
)";
    for (auto _ : state) {
        benchmark::DoNotOptimize(yamlite::parse(yaml));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(yaml.size()));
}
BENCHMARK(BM_YamlParseDeployment);

void BM_YamlEmitRoundTrip(benchmark::State& state) {
    const auto doc = yamlite::parse("a:\n  b:\n    - x\n    - y\nc: 1\n");
    for (auto _ : state) {
        benchmark::DoNotOptimize(yamlite::parse(yamlite::emit(doc)));
    }
}
BENCHMARK(BM_YamlEmitRoundTrip);

void BM_SampleSetQuantile(benchmark::State& state) {
    sim::Rng rng(3);
    sim::SampleSet set;
    for (int i = 0; i < 10000; ++i) set.add(rng.uniform(0, 1000));
    for (auto _ : state) {
        // Re-add one sample to force the re-sort each iteration.
        set.add(rng.uniform(0, 1000));
        benchmark::DoNotOptimize(set.quantile(0.95));
    }
}
BENCHMARK(BM_SampleSetQuantile);

void BM_RngLognormal(benchmark::State& state) {
    sim::Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.lognormal_median(1.0, 0.2));
    }
}
BENCHMARK(BM_RngLognormal);

} // namespace

BENCHMARK_MAIN();
