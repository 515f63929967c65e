// Serverless (WASM) runtime and FaasCluster tests: millisecond cold starts,
// warm pools, keep-alive reaping, and side-by-side operation with container
// clusters behind the same transparent-access controller.
#include <gtest/gtest.h>

#include "core/edge_platform.hpp"
#include "serverless/faas_cluster.hpp"

namespace tedge::serverless {
namespace {

using sim::milliseconds;
using sim::seconds;

struct FaasFixture : ::testing::Test {
    FaasFixture() {
        node = topo.add_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
        registry = std::make_unique<container::Registry>(
            simulation, container::RegistryProfile{.host = "docker.io"});
        registries.add(*registry);
        cluster = std::make_unique<FaasCluster>("faas", simulation, topo, node,
                                                endpoints, registries, sim::Rng{1});

        app.name = "fn";
        app.init_median = milliseconds(1);
        app.service_median = sim::microseconds(300);
        app.response_size = 256;
        app.concurrency = 1;
        app.port = 8080;

        module.ref = *container::ImageRef::parse("hello-wasm:1");
        module.layers = container::make_layers("hello-wasm", sim::kib(800), 1);
        registry->put(module);

        spec.name = "fn";
        spec.cloud_address = {net::Ipv4{203, 0, 113, 1}, 8080};
        spec.expose_port = 8080;
        spec.target_port = 8080;
        orchestrator::ContainerTemplate tmpl;
        tmpl.name = "fn";
        tmpl.image = module.ref;
        tmpl.app = &app;
        tmpl.container_port = 8080;
        spec.containers.push_back(tmpl);
    }

    void pull_and_create() {
        bool pulled = false;
        cluster->ensure_image(spec, [&](bool ok, const container::PullTiming&) {
            pulled = ok;
        });
        simulation.run();
        ASSERT_TRUE(pulled);
        bool created = false;
        cluster->create_service(spec, [&](bool ok) { created = ok; });
        simulation.run();
        ASSERT_TRUE(created);
    }

    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    net::NodeId node;
    orchestrator::RegistryDirectory registries;
    std::unique_ptr<container::Registry> registry;
    std::unique_ptr<FaasCluster> cluster;
    container::AppProfile app;
    container::Image module;
    orchestrator::ServiceSpec spec;
};

TEST_F(FaasFixture, CreateBindsGatewayAndIsReadyScaleFromZero) {
    pull_and_create();
    const auto instances = cluster->instances("fn");
    ASSERT_EQ(instances.size(), 1u);
    EXPECT_TRUE(instances[0].ready); // gateway accepts before any instance runs
    EXPECT_TRUE(topo.port_open(node, instances[0].port));
    EXPECT_EQ(cluster->runtime().warm_instances("fn"), 0);
}

TEST_F(FaasFixture, FirstInvocationPaysMillisecondColdStart) {
    pull_and_create();
    const auto port = cluster->instances("fn")[0].port;
    const auto handler = endpoints.find(node, port);
    ASSERT_NE(handler, nullptr);

    const sim::SimTime t0 = simulation.now();
    sim::SimTime first_latency;
    (*handler)(100, [&](sim::Bytes size) {
        EXPECT_EQ(size, 256);
        first_latency = simulation.now() - t0;
    });
    simulation.run();
    EXPECT_EQ(cluster->runtime().cold_starts(), 1u);
    // Cold start ~6 ms + service -- two orders of magnitude below a
    // container start.
    EXPECT_GT(first_latency, milliseconds(3));
    EXPECT_LT(first_latency, milliseconds(30));

    // Second invocation hits the warm instance: sub-millisecond runtime cost.
    const sim::SimTime t1 = simulation.now();
    sim::SimTime second_latency;
    (*handler)(100, [&](sim::Bytes) { second_latency = simulation.now() - t1; });
    simulation.run();
    EXPECT_EQ(cluster->runtime().cold_starts(), 1u); // no new cold start
    EXPECT_LT(second_latency, milliseconds(2));
}

TEST_F(FaasFixture, ScaleUpPrewarmsAnInstance) {
    pull_and_create();
    bool scaled = false;
    cluster->scale_up("fn", [&](bool ok) { scaled = ok; });
    simulation.run();
    EXPECT_TRUE(scaled);
    EXPECT_EQ(cluster->runtime().warm_instances("fn"), 1);

    // A request now needs no cold start at all.
    const auto port = cluster->instances("fn")[0].port;
    const std::uint64_t cold_before = cluster->runtime().cold_starts();
    (*endpoints.find(node, port))(100, [](sim::Bytes) {});
    simulation.run();
    EXPECT_EQ(cluster->runtime().cold_starts(), cold_before);
}

TEST_F(FaasFixture, KeepAliveReapsIdleInstances) {
    pull_and_create();
    cluster->scale_up("fn", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run();
    EXPECT_EQ(cluster->runtime().warm_instances("fn"), 1);
    simulation.run_until(simulation.now() + seconds(60)); // > 30 s keep-alive
    EXPECT_EQ(cluster->runtime().warm_instances("fn"), 0);
}

TEST_F(FaasFixture, ScaleDownDropsWarmPool) {
    pull_and_create();
    cluster->scale_up("fn", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run();
    bool down = false;
    cluster->scale_down("fn", [&](bool ok) { down = ok; });
    simulation.run();
    EXPECT_TRUE(down);
    EXPECT_EQ(cluster->runtime().warm_instances("fn"), 0);
    // Gateway stays bound: the function still answers (with a cold start).
    EXPECT_TRUE(cluster->instances("fn")[0].ready);
}

TEST_F(FaasFixture, RemoveUnbindsGateway) {
    pull_and_create();
    const auto port = cluster->instances("fn")[0].port;
    bool removed = false;
    cluster->remove_service("fn", [&](bool ok) { removed = ok; });
    simulation.run();
    EXPECT_TRUE(removed);
    EXPECT_FALSE(cluster->has_service("fn"));
    EXPECT_FALSE(topo.port_open(node, port));
    EXPECT_TRUE(cluster->instances("fn").empty());
}

TEST_F(FaasFixture, BacklogQueuesBeyondInstanceCap) {
    pull_and_create();
    auto& runtime = cluster->runtime();
    // Deploy a capped function directly on the runtime.
    FunctionSpec fn;
    fn.name = "capped";
    fn.module = module.ref;
    fn.app = &app;
    fn.max_instances = 1;
    bool deployed = false;
    runtime.deploy(fn, 9500, [&] { deployed = true; });
    simulation.run();
    ASSERT_TRUE(deployed);

    const auto handler = endpoints.find(node, 9500);
    std::vector<sim::SimTime> completions;
    for (int i = 0; i < 3; ++i) {
        (*handler)(10, [&](sim::Bytes) { completions.push_back(simulation.now()); });
    }
    simulation.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_LT(completions[0], completions[1]);
    EXPECT_LT(completions[1], completions[2]); // strictly serialized
}

TEST_F(FaasFixture, ModulePullIsFastComparedToContainers) {
    bool pulled = false;
    container::PullTiming timing;
    cluster->ensure_image(spec, [&](bool ok, const container::PullTiming& t) {
        pulled = ok;
        timing = t;
    });
    simulation.run();
    ASSERT_TRUE(pulled);
    // A sub-MiB module downloads in well under a second even from a remote
    // registry profile.
    EXPECT_LT(timing.duration(), seconds(1));
}

// -------------------------------------------------- transparent side-by-side

TEST(FaasIntegration, SameYamlServesFromWasmBehindTheController) {
    core::EdgePlatform platform;
    const auto client = platform.add_client("ue", net::Ipv4{10, 0, 1, 1});
    const auto edge = platform.add_edge_host("edge", net::Ipv4{10, 0, 0, 2}, 12);
    platform.add_cloud();

    auto& hub = platform.add_registry({.host = "docker.io"});
    container::Image module;
    module.ref = *container::ImageRef::parse("hello-wasm:1");
    module.layers = container::make_layers("hello-wasm", sim::kib(500), 1);
    hub.put(module);

    container::AppProfile app;
    app.name = "fn";
    app.init_median = milliseconds(1);
    app.service_median = sim::microseconds(200);
    app.port = 8080;
    platform.add_app_profile("hello-wasm:1", app);

    platform.add_faas_cluster("faas", edge);
    const net::ServiceAddress address{net::Ipv4{203, 0, 113, 70}, 8080};
    platform.register_service(address, R"(
kind: Deployment
spec:
  template:
    spec:
      containers:
        - name: fn
          image: hello-wasm:1
          ports:
            - containerPort: 8080
)");
    platform.start_controller(edge);

    net::HttpResult result;
    bool done = false;
    platform.http_request(client, address, 100, [&](const net::HttpResult& r) {
        result = r;
        done = true;
    });
    platform.simulation().run_until(seconds(60));
    ASSERT_TRUE(done);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, edge);
    // Whole first request -- including the module pull, function create, and
    // cold start -- comfortably under a second: the serverless upside.
    EXPECT_LT(result.time_total, milliseconds(600));
}

} // namespace
} // namespace tedge::serverless
