// Kubernetes model tests: the API server with watches, the control-loop
// chain deployment -> replicaset -> pod -> scheduler -> kubelet ->
// endpoints -> kube-proxy, and the emergent scale-up latency.
#include <gtest/gtest.h>

#include "orchestrator/k8s/k8s_cluster.hpp"

namespace tedge::orchestrator::k8s {
namespace {

using sim::milliseconds;
using sim::seconds;

// ------------------------------------------------------------- API server

TEST(ApiServer, WatchReceivesEventsAfterLatency) {
    sim::Simulation simulation;
    ApiServer api(simulation, {.request_latency = milliseconds(10),
                               .watch_latency = milliseconds(25)});
    std::vector<std::pair<WatchEventType, sim::SimTime>> events;
    api.pods().watch([&](const WatchEvent& event) {
        events.emplace_back(event.type, simulation.now());
    });

    PodObj pod;
    pod.name = "p1";
    api.request([&] { api.pods().upsert("p1", pod); });
    simulation.run();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, WatchEventType::kAdded);
    EXPECT_EQ(events[0].second, milliseconds(35)); // request + watch latency

    api.request([&] { api.pods().upsert("p1", pod); });
    api.request([&] { api.pods().erase("p1"); });
    simulation.run();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[1].first, WatchEventType::kModified);
    EXPECT_EQ(events[2].first, WatchEventType::kDeleted);
}

TEST(ApiServer, StoreAccessors) {
    sim::Simulation simulation;
    ApiServer api(simulation);
    EXPECT_EQ(api.pods().get("x"), nullptr);
    PodObj pod;
    pod.name = "x";
    api.pods().upsert("x", pod);
    EXPECT_NE(api.pods().get("x"), nullptr);
    EXPECT_EQ(api.pods().size(), 1u);
    EXPECT_EQ(api.pods().names().front(), "x");
    EXPECT_FALSE(api.pods().erase("zz"));
    EXPECT_TRUE(api.pods().erase("x"));
}

// ----------------------------------------------------------- full cluster

struct K8sFixture : ::testing::Test {
    K8sFixture() {
        node = topo.add_host("egs-k8s", net::Ipv4{10, 0, 0, 3}, 12);
        registry = std::make_unique<container::Registry>(
            simulation, container::RegistryProfile{.host = "docker.io"});
        registries.add(*registry);
        cluster = std::make_unique<K8sCluster>("k8s", simulation, topo,
                                               std::vector{node}, endpoints,
                                               registries, sim::Rng{1});

        app.name = "web";
        app.init_median = milliseconds(30);
        app.service_median = milliseconds(1);
        app.port = 80;

        image.ref = *container::ImageRef::parse("web:1");
        image.layers = container::make_layers("web", sim::mib(30), 3);
        registry->put(image);

        spec.name = "svc";
        spec.cloud_address = {net::Ipv4{203, 0, 113, 1}, 80};
        spec.expose_port = 80;
        spec.target_port = 80;
        spec.labels = {{"app", "svc"}, {"edge.service", "svc"}};
        ContainerTemplate tmpl;
        tmpl.name = "web";
        tmpl.image = image.ref;
        tmpl.app = &app;
        tmpl.container_port = 80;
        spec.containers.push_back(tmpl);
    }

    void pull() {
        bool ok = false;
        cluster->ensure_image(spec, [&](bool success, const container::PullTiming&) {
            ok = success;
        });
        simulation.run_until(simulation.now() + seconds(60));
        ASSERT_TRUE(ok);
    }

    void create() {
        bool ok = false;
        cluster->create_service(spec, [&](bool success) { ok = success; });
        simulation.run_until(simulation.now() + seconds(5));
        ASSERT_TRUE(ok);
    }

    /// Returns the virtual time from the scale_up call until the service
    /// port accepted traffic.
    sim::SimTime scale_up_and_wait_ready() {
        const sim::SimTime t0 = simulation.now();
        cluster->scale_up(spec.name, [](bool ok) { ASSERT_TRUE(ok); });
        while (simulation.now() - t0 < seconds(30)) {
            simulation.run_until(simulation.now() + milliseconds(100));
            const auto ready = cluster->ready_instances(spec.name);
            if (!ready.empty()) return simulation.now() - t0;
        }
        ADD_FAILURE() << "service never became ready";
        return sim::SimTime::zero();
    }

    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    net::NodeId node;
    RegistryDirectory registries;
    std::unique_ptr<container::Registry> registry;
    std::unique_ptr<K8sCluster> cluster;
    container::AppProfile app;
    container::Image image;
    ServiceSpec spec;
};

TEST_F(K8sFixture, CreateMakesDeploymentAndServiceWithZeroReplicas) {
    pull();
    create();
    EXPECT_TRUE(cluster->has_service("svc"));
    const auto* deployment = cluster->api().deployments().get("svc");
    ASSERT_NE(deployment, nullptr);
    EXPECT_EQ(deployment->replicas, 0);
    const auto* service = cluster->api().services().get("svc");
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->expose_port, 80);
    EXPECT_EQ(service->selector.at("edge.service"), "svc");
    // Scale-to-zero: the controllers settle with an RS but no pods.
    simulation.run_until(simulation.now() + seconds(2));
    EXPECT_NE(cluster->api().replicasets().get("svc-rs"), nullptr);
    EXPECT_EQ(cluster->api().pods().size(), 0u);
    EXPECT_TRUE(cluster->instances("svc").empty());
}

TEST_F(K8sFixture, ScaleUpDrivesControlLoopChainToReadyPod) {
    pull();
    create();
    const auto elapsed = scale_up_and_wait_ready();

    // One pod, bound to our node, Running and ready.
    ASSERT_EQ(cluster->api().pods().size(), 1u);
    const auto& pod = cluster->api().pods().items().begin()->second;
    EXPECT_EQ(pod.node, node);
    EXPECT_EQ(pod.phase, PodPhase::kRunning);
    EXPECT_TRUE(pod.ready);

    // Endpoints propagated and kube-proxy opened the node port.
    const auto* service = cluster->api().services().get("svc");
    ASSERT_EQ(service->endpoints.size(), 1u);
    const auto instances = cluster->ready_instances("svc");
    ASSERT_EQ(instances.size(), 1u);
    EXPECT_TRUE(topo.port_open(node, instances[0].port));
    EXPECT_NE(endpoints.find(node, instances[0].port), nullptr);

    // Emergent latency: an orchestrator-grade multi-second chain, far above
    // a bare container start, in the paper's ~3 s ballpark.
    EXPECT_GT(elapsed, seconds(2));
    EXPECT_LT(elapsed, seconds(6));
}

TEST_F(K8sFixture, ServicePortForwardsToPod) {
    pull();
    create();
    scale_up_and_wait_ready();
    const auto instances = cluster->ready_instances("svc");
    ASSERT_EQ(instances.size(), 1u);
    const auto handler = endpoints.find(node, instances[0].port);
    ASSERT_NE(handler, nullptr);
    bool replied = false;
    (*handler)(100, [&](sim::Bytes size) {
        EXPECT_EQ(size, app.response_size);
        replied = true;
    });
    simulation.run_until(simulation.now() + seconds(1));
    EXPECT_TRUE(replied);
}

TEST_F(K8sFixture, ScaleDownTerminatesPodAndClosesPort) {
    pull();
    create();
    scale_up_and_wait_ready();
    const auto port = cluster->ready_instances("svc")[0].port;

    cluster->scale_down("svc", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(10));
    EXPECT_EQ(cluster->api().pods().size(), 0u);
    EXPECT_TRUE(cluster->instances("svc").empty());
    EXPECT_FALSE(topo.port_open(node, port));
    EXPECT_EQ(endpoints.find(node, port), nullptr);
    // Deployment and Service survive (scale to zero, not removed).
    EXPECT_TRUE(cluster->has_service("svc"));
}

TEST_F(K8sFixture, RemoveServiceCascades) {
    pull();
    create();
    scale_up_and_wait_ready();
    bool removed = false;
    cluster->remove_service("svc", [&](bool ok) { removed = ok; });
    simulation.run_until(simulation.now() + seconds(10));
    EXPECT_TRUE(removed);
    EXPECT_FALSE(cluster->has_service("svc"));
    EXPECT_EQ(cluster->api().pods().size(), 0u);
    EXPECT_EQ(cluster->api().replicasets().get("svc-rs"), nullptr);
    EXPECT_EQ(cluster->api().services().get("svc"), nullptr);
}

TEST_F(K8sFixture, MultipleReplicasViaRepeatedScaleUp) {
    pull();
    create();
    scale_up_and_wait_ready();
    cluster->scale_up("svc", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(10));
    EXPECT_EQ(cluster->api().pods().size(), 2u);
    EXPECT_EQ(cluster->instances("svc").size(), 2u);
    EXPECT_EQ(cluster->total_instances(), 2u);
}

TEST_F(K8sFixture, KubeletPullsMissingImageOnDemand) {
    // No pre-pull: the kubelet pulls with IfNotPresent semantics.
    create();
    const auto elapsed = scale_up_and_wait_ready();
    EXPECT_TRUE(cluster->has_image(spec));
    EXPECT_GT(elapsed, seconds(2));
}

TEST_F(K8sFixture, DistinctNodePortsForManyServices) {
    pull();
    std::set<std::uint16_t> ports;
    for (int i = 0; i < 8; ++i) {
        ServiceSpec s = spec;
        s.name = "svc" + std::to_string(i);
        s.labels = {{"app", s.name}, {"edge.service", s.name}};
        cluster->create_service(s, [](bool ok) { ASSERT_TRUE(ok); });
    }
    simulation.run_until(simulation.now() + seconds(5));
    for (int i = 0; i < 8; ++i) {
        const auto* service =
            cluster->api().services().get("svc" + std::to_string(i));
        ASSERT_NE(service, nullptr);
        EXPECT_TRUE(ports.insert(service->node_port).second);
    }
    EXPECT_TRUE(ports.contains(80));
}

TEST_F(K8sFixture, CustomPlacementPolicyIsUsed) {
    // A second node plus a policy pinning pods to it by schedulerName.
    const auto node2 = topo.add_host("worker2", net::Ipv4{10, 0, 0, 9}, 4);
    K8sCluster two_nodes("k8s2", simulation, topo, {node, node2}, endpoints,
                         registries, sim::Rng{2});

    class PinToSecond final : public PodPlacementPolicy {
    public:
        explicit PinToSecond(net::NodeId target) : target_(target) {}
        std::optional<net::NodeId> pick(const PodObj&,
                                        const std::vector<net::NodeId>&,
                                        const ApiServer&) override {
            return target_;
        }

    private:
        net::NodeId target_;
    };
    two_nodes.scheduler().register_policy("pin2",
                                          std::make_unique<PinToSecond>(node2));

    ServiceSpec pinned = spec;
    pinned.name = "pinned";
    pinned.labels = {{"app", "pinned"}, {"edge.service", "pinned"}};
    pinned.scheduler_name = "pin2";
    two_nodes.create_service(pinned, [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(2));
    two_nodes.scale_up("pinned", [](bool ok) { ASSERT_TRUE(ok); });
    simulation.run_until(simulation.now() + seconds(20));

    const auto instances = two_nodes.instances("pinned");
    ASSERT_EQ(instances.size(), 1u);
    EXPECT_EQ(instances[0].node, node2);
}

TEST_F(K8sFixture, ScaleUpUnknownServiceReportsFalse) {
    bool result = true;
    cluster->scale_up("ghost", [&](bool ok) { result = ok; });
    simulation.run_until(simulation.now() + seconds(1));
    EXPECT_FALSE(result);
}

} // namespace
} // namespace tedge::orchestrator::k8s
