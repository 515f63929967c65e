#include "testbed/c3.hpp"

#include <stdexcept>

#include "testbed/calibration.hpp"

namespace tedge::testbed {

void C3Testbed::register_table1_services() {
    for (const auto& service : table1_services()) {
        platform.register_service(service.address, service.yaml);
    }
}

void C3Testbed::register_service_as(const TestService& service,
                                    const net::ServiceAddress& address) {
    platform.register_service(address, service.yaml);
}

std::unique_ptr<C3Testbed> build_c3(const C3Options& options) {
    namespace cal = calibration;

    core::EdgePlatformConfig platform_config;
    platform_config.seed = options.seed;
    platform_config.prober.interval = cal::kProbeInterval;

    auto testbed = std::make_unique<C3Testbed>(platform_config);
    auto& p = testbed->platform;

    // --- hosts -----------------------------------------------------------
    // The EGS runs everything; we give the Docker side, the K8s side, and
    // the controller process their own host nodes joined by near-zero
    // latency links (same physical box, distinct port spaces).
    testbed->egs_docker = p.add_edge_host("egs-docker", net::Ipv4{10, 0, 0, 2}, 12,
                                          cal::kEgsLinkLatency,
                                          sim::gbit_per_sec(cal::kEgsGbps));
    testbed->egs_k8s = p.add_edge_host("egs-k8s", net::Ipv4{10, 0, 0, 3}, 12,
                                       cal::kEgsLinkLatency,
                                       sim::gbit_per_sec(cal::kEgsGbps));
    testbed->controller_host = p.add_edge_host("egs-ctl", net::Ipv4{10, 0, 0, 4}, 12,
                                               cal::kControllerLinkLatency,
                                               sim::gbit_per_sec(cal::kEgsGbps));

    for (std::size_t i = 0; i < options.num_clients; ++i) {
        const auto ip = net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(10 + i)};
        testbed->clients.push_back(
            p.add_client("rpi" + std::to_string(i + 1), ip, cal::kClientLinkLatency,
                         sim::gbit_per_sec(cal::kClientGbps)));
    }

    if (options.with_cloud) {
        p.add_cloud("cloud", cal::kCloudLatency, sim::gbit_per_sec(10));
    }

    // --- registries -------------------------------------------------------
    testbed->docker_hub = &p.add_registry(cal::docker_hub());
    testbed->gcr = &p.add_registry(cal::gcr());
    testbed->private_registry = &p.add_registry(cal::private_registry());
    install_services(p, *testbed->docker_hub, *testbed->gcr,
                     testbed->private_registry);
    if (options.use_private_registry_mirror) {
        p.registries().set_mirror(testbed->private_registry);
    }

    // --- clusters ----------------------------------------------------------
    if (options.with_docker) {
        testbed->docker = &p.add_docker_cluster("egs-docker", testbed->egs_docker,
                                                cal::docker_config(),
                                                cal::runtime_costs(),
                                                cal::puller_config());
    }
    if (options.with_k8s) {
        testbed->k8s = &p.add_k8s_cluster("egs-k8s", {testbed->egs_k8s},
                                          cal::k8s_config());
    }
    if (options.with_far_edge) {
        testbed->far_edge_host =
            p.add_edge_host("far-edge", net::Ipv4{10, 0, 2, 2}, 24,
                            sim::milliseconds(4), sim::gbit_per_sec(10));
        testbed->far_edge = &p.add_docker_cluster("far-edge", testbed->far_edge_host,
                                                  cal::docker_config(),
                                                  cal::runtime_costs(),
                                                  cal::puller_config());
    }
    if (p.clusters().empty() && !options.with_cloud) {
        throw std::invalid_argument("C3 testbed needs at least one cluster or cloud");
    }

    // --- extra cells (mobility) ------------------------------------------
    for (std::size_t i = 0; i < options.extra_gnbs; ++i) {
        testbed->gnbs.push_back(&p.add_ingress(
            "gnb" + std::to_string(i + 2),
            options.gnb_backbone_latency * static_cast<std::int64_t>(i + 1)));
    }

    // --- controller ---------------------------------------------------------
    p.start_controller(testbed->controller_host, options.controller);
    return testbed;
}

} // namespace tedge::testbed
