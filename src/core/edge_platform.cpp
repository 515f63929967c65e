#include "core/edge_platform.hpp"

#include <stdexcept>

namespace tedge::core {

EdgePlatform::EdgePlatform(EdgePlatformConfig config)
    : config_(std::move(config)),
      owned_sim_(std::make_unique<sim::Simulation>()),
      sim_(owned_sim_.get()),
      rng_(config_.seed) {
    init();
}

EdgePlatform::EdgePlatform(sim::Simulation& sim, EdgePlatformConfig config)
    : config_(std::move(config)), sim_(&sim), rng_(config_.seed) {
    init();
}

void EdgePlatform::init() {
    switch_node_ = topo_.add_switch("gnb");
    switch_ = std::make_unique<net::OvsSwitch>(*sim_, topo_, switch_node_,
                                               config_.ingress);
    tcp_ = std::make_unique<net::TcpNet>(*sim_, topo_, *switch_, endpoints_,
                                         config_.tcp);
    sessions_ = std::make_unique<sdn::SessionPlane>(*sim_);
    tcp_->set_attachment(sessions_.get());
    annotator_ = std::make_unique<sdn::Annotator>(
        [this](const container::ImageRef& ref) { return profile_for(ref); },
        config_.annotator);
}

net::OvsSwitch& EdgePlatform::add_ingress(const std::string& name,
                                          sim::SimTime backbone_latency,
                                          sim::DataRate rate) {
    const auto node = topo_.add_switch(name);
    topo_.add_link(node, switch_node_, backbone_latency, rate);
    extra_switches_.push_back(
        std::make_unique<net::OvsSwitch>(*sim_, topo_, node, config_.ingress));
    auto& ingress = *extra_switches_.back();
    if (controller_) controller_->attach(ingress);
    return ingress;
}

net::NodeId EdgePlatform::add_client(const std::string& name, net::Ipv4 ip,
                                     sim::SimTime link_latency, sim::DataRate rate) {
    const auto node = topo_.add_host(name, ip, 4);
    topo_.add_link(node, switch_node_, link_latency, rate);
    sessions_->attach(node, ip, *switch_);
    return node;
}

void EdgePlatform::connect_client_to_ingress(net::NodeId client,
                                             net::OvsSwitch& ingress,
                                             sim::SimTime link_latency,
                                             sim::DataRate rate) {
    topo_.add_link(client, ingress.node(), link_latency, rate);
    handover_client(client, ingress);
}

void EdgePlatform::handover_client(net::NodeId client, net::OvsSwitch& ingress) {
    sessions_->attach(client, topo_.node(client).ip, ingress);
}

void EdgePlatform::schedule_handover(net::NodeId client, net::OvsSwitch& ingress,
                                     sim::SimTime at) {
    // A user event, not a daemon: a pending handover is workload, and the
    // run must not drain out from under it.
    sim_->schedule_at(at, [this, client, &ingress] {
        handover_client(client, ingress);
    });
}

net::NodeId EdgePlatform::add_edge_host(const std::string& name, net::Ipv4 ip,
                                        std::uint32_t cores,
                                        sim::SimTime link_latency,
                                        sim::DataRate rate) {
    const auto node = topo_.add_host(name, ip, cores);
    topo_.add_link(node, switch_node_, link_latency, rate);
    return node;
}

net::NodeId EdgePlatform::add_cloud(const std::string& name,
                                    sim::SimTime link_latency, sim::DataRate rate) {
    if (cloud_.valid()) throw std::logic_error("cloud node already added");
    cloud_ = topo_.add_host(name, net::Ipv4{10, 255, 255, 1}, 256);
    topo_.add_link(cloud_, switch_node_, link_latency, rate);
    return cloud_;
}

container::Registry&
EdgePlatform::add_registry(const container::RegistryProfile& profile) {
    registries_.push_back(std::make_unique<container::Registry>(*sim_, profile));
    registry_dir_.add(*registries_.back());
    return *registries_.back();
}

void EdgePlatform::add_app_profile(const std::string& image,
                                   container::AppProfile profile) {
    const auto ref = container::ImageRef::parse(image);
    if (!ref) throw std::invalid_argument("malformed image: " + image);
    app_catalog_[ref->full()] = std::move(profile);
}

const container::AppProfile*
EdgePlatform::profile_for(const container::ImageRef& ref) const {
    const auto it = app_catalog_.find(ref.full());
    return it == app_catalog_.end() ? nullptr : &it->second;
}

orchestrator::DockerCluster&
EdgePlatform::add_docker_cluster(const std::string& name, net::NodeId node,
                                 orchestrator::DockerClusterConfig config,
                                 container::RuntimeCostModel runtime_costs,
                                 container::PullerConfig puller) {
    auto cluster = std::make_unique<orchestrator::DockerCluster>(
        name, *sim_, topo_, node, endpoints_, registry_dir_, rng_.split(), config,
        runtime_costs, puller);
    auto& ref = *cluster;
    clusters_.push_back(std::move(cluster));
    cluster_ptrs_.push_back(&ref);
    return ref;
}

orchestrator::k8s::K8sCluster&
EdgePlatform::add_k8s_cluster(const std::string& name,
                              std::vector<net::NodeId> nodes,
                              orchestrator::k8s::K8sClusterConfig config) {
    auto cluster = std::make_unique<orchestrator::k8s::K8sCluster>(
        name, *sim_, topo_, std::move(nodes), endpoints_, registry_dir_,
        rng_.split(), config);
    auto& ref = *cluster;
    clusters_.push_back(std::move(cluster));
    cluster_ptrs_.push_back(&ref);
    return ref;
}

serverless::FaasCluster&
EdgePlatform::add_faas_cluster(const std::string& name, net::NodeId node,
                               serverless::FaasClusterConfig config) {
    auto cluster = std::make_unique<serverless::FaasCluster>(
        name, *sim_, topo_, node, endpoints_, registry_dir_, rng_.split(), config);
    auto& ref = *cluster;
    clusters_.push_back(std::move(cluster));
    cluster_ptrs_.push_back(&ref);
    return ref;
}

orchestrator::Cluster* EdgePlatform::cluster(const std::string& name) const {
    for (auto* c : cluster_ptrs_) {
        if (c->name() == name) return c;
    }
    return nullptr;
}

void EdgePlatform::provision_cloud_service(const sdn::AnnotatedService& service) {
    if (!cloud_.valid()) return;
    const auto& address = service.spec.cloud_address;
    // The cloud answers for the registered address itself.
    if (!topo_.find_by_ip(address.ip)) {
        topo_.add_ip_alias(cloud_, address.ip);
    }
    topo_.open_port(cloud_, address.port);

    // Cloud-side instance: effectively infinite capacity, same application
    // behaviour as at the edge.
    const container::AppProfile* app = nullptr;
    for (const auto& c : service.spec.containers) {
        if (c.container_port == service.spec.target_port) {
            app = c.app;
            break;
        }
    }
    if (app == nullptr && !service.spec.containers.empty()) {
        app = service.spec.containers.front().app;
    }
    auto rng = std::make_shared<sim::Rng>(rng_.split());
    endpoints_.bind(cloud_, address.port,
                    [this, app, rng](sim::Bytes, net::EndpointDirectory::ReplyFn reply) {
        if (app == nullptr) {
            reply(512);
            return;
        }
        const sim::SimTime service_time = app->sample_service(*rng);
        sim_->schedule(service_time, [app, reply = std::move(reply)]() mutable {
            reply(app->response_size);
        });
    });
}

const sdn::AnnotatedService&
EdgePlatform::register_service(const net::ServiceAddress& address,
                               const std::string& yaml_text) {
    const auto& service = services_.register_yaml(address, yaml_text, *annotator_);
    provision_cloud_service(service);
    return service;
}

sdn::Controller& EdgePlatform::start_controller(net::NodeId controller_host,
                                                sdn::ControllerConfig config) {
    if (controller_) throw std::logic_error("controller already started");
    prober_ = std::make_unique<PortProber>(*tcp_, controller_host, config_.prober);
    engine_ = std::make_unique<DeploymentEngine>(*sim_, *prober_);
    config.session_plane = sessions_.get();
    controller_ = std::make_unique<sdn::Controller>(
        *sim_, topo_, *switch_, services_, *engine_, cluster_ptrs_, std::move(config));
    controller_->start();
    for (auto& ingress : extra_switches_) controller_->attach(*ingress);
    return *controller_;
}

void EdgePlatform::http_request(net::NodeId client,
                                const net::ServiceAddress& address,
                                sim::Bytes request_size,
                                net::TcpNet::DoneFn done) {
    tcp_->http_request(client, address, request_size, std::move(done));
}

} // namespace tedge::core
