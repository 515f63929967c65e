#include "orchestrator/k8s/k8s_cluster.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "simcore/metrics_registry.hpp"

namespace tedge::orchestrator::k8s {
namespace {

/// The cluster-level node_capacity is the default for the scheduler's
/// capacity filter; an explicitly-set scheduler capacity wins.
KubeSchedulerConfig scheduler_config(KubeSchedulerConfig cfg,
                                     const ResourceCapacity& node_capacity) {
    if (!cfg.node_capacity.limited()) cfg.node_capacity = node_capacity;
    return cfg;
}

} // namespace

K8sCluster::K8sCluster(std::string name, sim::Simulation& sim, net::Topology& topo,
                       std::vector<net::NodeId> nodes,
                       net::EndpointDirectory& endpoints,
                       RegistryDirectory& registries, sim::Rng rng,
                       K8sClusterConfig config)
    : name_(std::move(name)), sim_(sim), topo_(topo), nodes_(std::move(nodes)),
      endpoints_(endpoints), registries_(registries), config_(config),
      api_(sim, config.api), controllers_(sim, api_, config.controllers),
      scheduler_(sim, api_, nodes_,
                 scheduler_config(config.scheduler, config.node_capacity)),
      log_(sim, "k8s/" + name_) {
    if (nodes_.empty()) throw std::invalid_argument("K8sCluster needs >= 1 node");

    KubeletConfig kubelet_config = config.kubelet;
    if (!kubelet_config.allocatable.limited()) {
        kubelet_config.allocatable = config.node_capacity;
    }
    for (const auto node : nodes_) {
        auto agents = std::make_unique<NodeAgents>();
        agents->node = node;
        agents->puller =
            std::make_unique<container::Puller>(sim, agents->store, config.puller);
        agents->runtime = std::make_unique<container::ContainerRuntime>(
            sim, topo, node, endpoints, rng.split(), config.runtime_costs);
        agents->kubelet = std::make_unique<Kubelet>(
            sim, api_, node, *agents->runtime, *agents->puller, registries,
            rng.split(), kubelet_config);
        agents_.push_back(std::move(agents));
    }

    controllers_.start();
    scheduler_.start();
    for (auto& a : agents_) a->kubelet->start();

    // kube-proxy: react to service/endpoint updates.
    api_.services().watch([this](const WatchEvent& event) {
        if (event.type == WatchEventType::kDeleted) return;
        sim_.schedule(config_.kubeproxy_program,
                      [this, name = event.name] { reconcile_proxy(name); });
    });
}

K8sCluster::~K8sCluster() {
    for (auto& [key, alias] : aliases_) alias.poll.cancel();
}

K8sCluster::NodeAgents& K8sCluster::agents_for(net::NodeId node) {
    for (auto& a : agents_) {
        if (a->node == node) return *a;
    }
    throw std::logic_error("agents_for: node not in cluster");
}

void K8sCluster::ensure_image(const ServiceSpec& spec, PullCallback done) {
    std::set<std::string> seen;
    std::vector<container::ImageRef> images;
    for (const auto& c : spec.containers) {
        if (seen.insert(c.image.full()).second) images.push_back(c.image);
    }
    struct Progress {
        std::size_t remaining = 0;
        bool ok = true;
        container::PullTiming total;
        PullCallback done;
    };
    auto progress = std::make_shared<Progress>();
    progress->remaining = images.size() * agents_.size();
    progress->total.started = sim_.now();
    progress->done = std::move(done);
    if (progress->remaining == 0) {
        sim_.schedule(sim::SimTime::zero(), [this, progress] {
            progress->total.finished = sim_.now();
            progress->done(true, progress->total);
        });
        return;
    }
    for (auto& agents : agents_) {
        for (const auto& ref : images) {
            auto* registry = registries_.resolve(ref);
            if (registry == nullptr) {
                progress->ok = false;
                if (--progress->remaining == 0) {
                    progress->total.finished = sim_.now();
                    progress->done(false, progress->total);
                }
                continue;
            }
            agents->puller->pull(ref, *registry,
                                 [this, progress](bool ok, const container::PullTiming& t) {
                progress->ok = progress->ok && ok;
                progress->total.bytes_downloaded += t.bytes_downloaded;
                progress->total.layers_downloaded += t.layers_downloaded;
                progress->total.layers_cached += t.layers_cached;
                progress->total.layers_shared += t.layers_shared;
                if (--progress->remaining == 0) {
                    progress->total.finished = sim_.now();
                    progress->done(progress->ok, progress->total);
                }
            });
        }
    }
}

bool K8sCluster::has_image(const ServiceSpec& spec) const {
    for (const auto& agents : agents_) {
        for (const auto& c : spec.containers) {
            if (!agents->store.has_image(c.image)) return false;
        }
    }
    return true;
}

void K8sCluster::create_service(const ServiceSpec& spec, BoolCallback done) {
    if (!spec.valid()) {
        sim_.schedule(sim::SimTime::zero(), [done = std::move(done)] { done(false); });
        return;
    }
    if (has_service(spec.name)) {
        sim_.schedule(config_.api.request_latency,
                      [done = std::move(done)] { done(true); });
        return;
    }
    DeploymentObj deployment;
    deployment.name = spec.name;
    deployment.spec = spec;
    deployment.replicas = spec.replicas;

    ServiceObj service;
    service.name = spec.name;
    service.expose_port = spec.expose_port;
    // NodePort-style entry point: prefer the declared port, move to a free
    // one when several services would collide on the node. The SDN layer
    // rewrites the destination port, so clients never see the difference.
    service.node_port = allocate_node_port(spec.expose_port);
    service.target_port = spec.target_port;
    service.selector = {{"edge.service", spec.name}};

    // Two API calls (kubectl apply of a two-document manifest).
    api_.request([this, deployment] {
        api_.deployments().upsert(deployment.name, deployment);
    });
    api_.request([this, service] { api_.services().upsert(service.name, service); },
                 [done = std::move(done)] { done(true); });
}

bool K8sCluster::has_service(const std::string& name) const {
    return api_.deployments().get(name) != nullptr;
}

void K8sCluster::scale_up(const std::string& name, BoolCallback done) {
    // Admission pre-flight: without it an over-capacity replica would sit
    // Pending until the deployment engine's await timeout. Rejecting here
    // fails fast with a typed reason; the kube-scheduler's per-node filter
    // remains the placement-time enforcement point.
    if (config_.node_capacity.limited()) {
        const auto* deployment = api_.deployments().get(name);
        if (deployment != nullptr) {
            if (const auto reason = admits(deployment->spec);
                reason != AdmissionReason::kAdmitted) {
                ++rejections_;
                log_.warn("scale up " + name + " rejected: " + to_string(reason));
                if (auto* m = sim_.metrics()) {
                    m->counter("k8s." + name_ + ".rejections").inc();
                    m->counter(std::string("k8s.rejected.") + to_string(reason))
                        .inc();
                }
                sim_.schedule(config_.api.request_latency,
                              [done = std::move(done)] { done(false); });
                return;
            }
            ++admissions_;
        }
    }
    api_.request(
        [this, name] {
            auto* deployment = api_.deployments().get_mutable(name);
            if (deployment == nullptr) return;
            DeploymentObj updated = *deployment;
            updated.replicas += 1;
            ++updated.generation;
            api_.deployments().upsert(name, updated);
        },
        [this, name, done = std::move(done)] { done(has_service(name)); });
}

void K8sCluster::scale_down(const std::string& name, BoolCallback done) {
    api_.request(
        [this, name] {
            auto* deployment = api_.deployments().get_mutable(name);
            if (deployment == nullptr) return;
            DeploymentObj updated = *deployment;
            updated.replicas = std::max(0, updated.replicas - 1);
            ++updated.generation;
            api_.deployments().upsert(name, updated);
        },
        [this, name, done = std::move(done)] { done(has_service(name)); });
}

void K8sCluster::remove_service(const std::string& name, BoolCallback done) {
    const bool existed = has_service(name);
    const auto* svc_obj = api_.services().get(name);
    const std::uint16_t expose = svc_obj != nullptr ? svc_obj->node_port : 0;
    api_.request(
        [this, name] {
            // Cascade: terminate owned pods, drop RS/Deployment/Service.
            const std::string rs_name = name + "-rs";
            std::vector<PodObj> to_terminate;
            for (const auto& [pod_name, pod] : api_.pods().items()) {
                if (pod.owner_rs == rs_name && pod.phase != PodPhase::kTerminating) {
                    PodObj updated = pod;
                    updated.phase = PodPhase::kTerminating;
                    updated.ready = false;
                    updated.phase_since = sim_.now();
                    to_terminate.push_back(updated);
                }
            }
            for (const auto& pod : to_terminate) {
                api_.pods().upsert(pod.name, pod);
            }
            api_.deployments().erase(name);
            api_.replicasets().erase(rs_name);
            api_.services().erase(name);
        },
        [this, name, existed, expose, done = std::move(done)] {
            // Tear down any proxy aliases for the removed service.
            if (expose != 0) {
                for (const auto node : nodes_) {
                    close_alias(name, node, expose);
                }
                used_node_ports_.erase(expose);
            }
            done(existed);
        });
}

void K8sCluster::delete_image(const ServiceSpec& spec) {
    for (auto& agents : agents_) {
        for (const auto& c : spec.containers) agents->store.remove_image(c.image);
        agents->store.gc();
    }
}

std::vector<InstanceInfo> K8sCluster::instances(const std::string& name) const {
    std::vector<InstanceInfo> out;
    const auto* svc = api_.services().get(name);
    const std::uint16_t expose = svc != nullptr ? svc->node_port : 0;
    for (const auto& [pod_name, pod] : api_.pods().items()) {
        if (pod.spec.name != name) continue;
        if (pod.phase == PodPhase::kTerminating) continue;
        if (!pod.node.valid()) continue;
        InstanceInfo info;
        info.service = name;
        info.node = pod.node;
        info.port = expose != 0 ? expose : pod.spec.expose_port;
        info.ready = topo_.port_open(pod.node, info.port);
        info.since = pod.phase_since;
        out.push_back(info);
    }
    return out;
}

std::uint16_t K8sCluster::allocate_node_port(std::uint16_t preferred) {
    if (preferred != 0 && used_node_ports_.insert(preferred).second) return preferred;
    while (used_node_ports_.contains(next_node_port_)) ++next_node_port_;
    const std::uint16_t port = next_node_port_++;
    used_node_ports_.insert(port);
    return port;
}

std::size_t K8sCluster::total_instances() const {
    std::size_t count = 0;
    for (const auto& [name, pod] : api_.pods().items()) {
        if (pod.phase != PodPhase::kTerminating) ++count;
    }
    return count;
}

ResourceRequest K8sCluster::pods_used() const {
    ResourceRequest used;
    for (const auto& [name, pod] : api_.pods().items()) {
        if (pod.phase != PodPhase::kTerminating) used += pod.resources;
    }
    return used;
}

ClusterUtilization K8sCluster::utilization() const {
    ClusterUtilization u;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        u.capacity += config_.node_capacity;
    }
    u.used = pods_used();
    if (u.used.cpu_millicores > peak_used_.cpu_millicores) {
        peak_used_.cpu_millicores = u.used.cpu_millicores;
    }
    if (u.used.memory_bytes > peak_used_.memory_bytes) {
        peak_used_.memory_bytes = u.used.memory_bytes;
    }
    u.peak_used = peak_used_;
    u.admissions = admissions_;
    u.rejections = rejections_;
    return u;
}

AdmissionReason K8sCluster::admits(const ServiceSpec& spec) const {
    if (!config_.node_capacity.limited()) return AdmissionReason::kAdmitted;
    const auto request = spec.resource_request();

    // Free capacity per node after the pods already bound there.
    std::vector<ResourceLedger> node_free;
    node_free.reserve(nodes_.size());
    for (const auto node : nodes_) {
        ResourceLedger ledger(config_.node_capacity);
        for (const auto& [pod_name, pod] : api_.pods().items()) {
            if (pod.node == node && pod.phase != PodPhase::kTerminating) {
                ledger.admit(pod.resources);
            }
        }
        node_free.push_back(ledger);
    }
    // Pending unbound pods will be placed by the capacity-filtered
    // scheduler; account for them first-fit (name order, the API store's
    // iteration order) so this pre-flight cannot over-admit.
    for (const auto& [pod_name, pod] : api_.pods().items()) {
        if (pod.node.valid() || pod.phase == PodPhase::kTerminating) continue;
        for (auto& ledger : node_free) {
            if (ledger.admit(pod.resources) == AdmissionReason::kAdmitted) break;
        }
    }
    bool cpu_fits_somewhere = false;
    for (const auto& ledger : node_free) {
        const auto reason = ledger.check(request);
        if (reason == AdmissionReason::kAdmitted) return reason;
        if (reason != AdmissionReason::kInsufficientCpu) cpu_fits_somewhere = true;
    }
    return cpu_fits_somewhere ? AdmissionReason::kInsufficientMemory
                              : AdmissionReason::kInsufficientCpu;
}

void K8sCluster::reconcile_proxy(const std::string& svc_name) {
    const auto* svc = api_.services().get(svc_name);
    if (svc == nullptr) return;

    // Nodes that should expose the service: every node hosting an endpoint.
    std::set<std::uint32_t> want_nodes;
    for (const auto& ep : svc->endpoints) want_nodes.insert(ep.node.value);

    for (const auto node : nodes_) {
        const auto key = std::make_pair(svc_name, node.value);
        const bool want = want_nodes.contains(node.value);
        auto& alias = aliases_[key];
        if (want && !alias.open && !alias.poll.active()) {
            // Wait until the pod's application is actually listening before
            // the DNAT path can complete a connection.
            const std::uint16_t expose = svc->node_port;
            alias.poll = sim_.schedule_periodic(config_.proxy_poll,
                                                [this, svc_name, node, expose] {
                const auto* s = api_.services().get(svc_name);
                if (s == nullptr) {
                    auto& a = aliases_[std::make_pair(svc_name, node.value)];
                    a.poll.cancel();
                    return;
                }
                for (const auto& ep : s->endpoints) {
                    if (ep.node == node && topo_.port_open(node, ep.pod_port)) {
                        open_alias(svc_name, node, expose);
                        return;
                    }
                }
            });
        } else if (!want && alias.open) {
            close_alias(svc_name, node, svc->node_port);
        } else if (!want && alias.poll.active()) {
            alias.poll.cancel();
        }
    }
}

void K8sCluster::open_alias(const std::string& svc_name, net::NodeId node,
                            std::uint16_t expose_port) {
    auto& alias = aliases_[std::make_pair(svc_name, node.value)];
    alias.poll.cancel();
    if (alias.open) return;
    alias.open = true;
    topo_.open_port(node, expose_port);
    // The service's round-robin cursor, shared by its aliases on every node.
    // Map nodes are address-stable and cursors are never erased.
    std::size_t* cursor = &rr_cursor_[svc_name];
    endpoints_.bind(node, expose_port,
                    [this, svc_name, node, cursor](sim::Bytes request,
                                                   net::EndpointDirectory::ReplyFn reply) {
        // DNAT to a ready endpoint on this node (round robin): count the
        // node-local endpoints, then take the cursor-th of them.
        const auto* svc = api_.services().get(svc_name);
        std::size_t local = 0;
        if (svc != nullptr) {
            for (const auto& ep : svc->endpoints) local += ep.node == node ? 1 : 0;
        }
        if (local == 0) {
            reply(0);
            return;
        }
        std::size_t pick = (*cursor)++ % local;
        const EndpointEntry* chosen = nullptr;
        for (const auto& ep : svc->endpoints) {
            if (ep.node == node && pick-- == 0) {
                chosen = &ep;
                break;
            }
        }
        const auto handler = endpoints_.find(node, chosen->pod_port);
        if (handler == nullptr) {
            reply(0);
            return;
        }
        (*handler)(request, std::move(reply));
    });
    log_.debug("kube-proxy: " + svc_name + " reachable on node " +
               std::to_string(node.value));
}

void K8sCluster::close_alias(const std::string& svc_name, net::NodeId node,
                             std::uint16_t expose_port) {
    auto& alias = aliases_[std::make_pair(svc_name, node.value)];
    alias.poll.cancel();
    if (!alias.open) return;
    alias.open = false;
    topo_.close_port(node, expose_port);
    endpoints_.unbind(node, expose_port);
}

} // namespace tedge::orchestrator::k8s
