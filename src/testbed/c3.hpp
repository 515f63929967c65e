// The Carinthian Computing Continuum (C3) testbed as used in the paper's
// evaluation (fig. 8): the SDN controller, the virtual OVS switch, the
// Kubernetes cluster, and Docker all run on the Edge Gateway Server (EGS,
// 12 cores, 10 Gbps); the clients run on 20 Raspberry Pis (1 Gbps). A cloud
// node and the three registries (Docker Hub, GCR, private) complete the
// picture. Optionally a second, farther edge cluster models the
// without-waiting scenario (fig. 3).
#pragma once

#include <memory>
#include <vector>

#include "core/edge_platform.hpp"
#include "testbed/services.hpp"

namespace tedge::testbed {

struct C3Options {
    std::uint64_t seed = 42;
    std::size_t num_clients = 20;
    bool with_docker = true;
    bool with_k8s = true;
    bool with_cloud = true;
    /// Second edge cluster behind an extra 4 ms of latency (fig. 3's
    /// "running service instance in an edge further away").
    bool with_far_edge = false;
    /// Route all pulls through the private in-network registry.
    bool use_private_registry_mirror = false;
    /// Extra gNB cells beyond the primary (mobility scenarios): cell k is a
    /// secondary ingress switch behind k x gnb_backbone_latency of backbone,
    /// a simple linear corridor. 0 = classic single-cell C3.
    std::size_t extra_gnbs = 0;
    sim::SimTime gnb_backbone_latency = sim::milliseconds(2);
    sdn::ControllerConfig controller;
};

struct C3Testbed {
    core::EdgePlatform platform;
    std::vector<net::NodeId> clients;        ///< the 20 Raspberry Pis
    net::NodeId egs_docker;                  ///< EGS: Docker side
    net::NodeId egs_k8s;                     ///< EGS: Kubernetes side
    net::NodeId controller_host;             ///< EGS: controller process
    net::NodeId far_edge_host;               ///< optional far edge
    container::Registry* docker_hub = nullptr;
    container::Registry* gcr = nullptr;
    container::Registry* private_registry = nullptr;
    orchestrator::Cluster* docker = nullptr;
    orchestrator::Cluster* k8s = nullptr;
    orchestrator::Cluster* far_edge = nullptr;
    /// Secondary cells (extra_gnbs of them), nearest first. The primary
    /// ingress is platform.ingress(), not listed here.
    std::vector<net::OvsSwitch*> gnbs;

    explicit C3Testbed(core::EdgePlatformConfig config) : platform(std::move(config)) {}

    /// Register all Table I services with the platform.
    void register_table1_services();

    /// Register one service under an arbitrary address (many-services runs).
    void register_service_as(const TestService& service,
                             const net::ServiceAddress& address);
};

/// Build the testbed; the controller is started and attached to the switch.
[[nodiscard]] std::unique_ptr<C3Testbed> build_c3(const C3Options& options = {});

} // namespace tedge::testbed
