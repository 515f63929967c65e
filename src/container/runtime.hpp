// Container runtime (containerd equivalent) bound to one topology node.
//
// Models the lifecycle costs the paper measures: container creation (rootfs
// snapshot), start (dominated by namespace setup, per Mohan et al. [23]),
// application initialisation until the port opens, stop and removal.
// Concurrent starts on the same node contend for CPU. Once an application is
// ready, the runtime binds an HTTP endpoint (with bounded request
// concurrency) into the EndpointDirectory.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "container/app_profile.hpp"
#include "container/image.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "simcore/unique_function.hpp"

namespace tedge::container {

struct VolumeMount {
    std::string host_path;
    std::string container_path;
    bool operator==(const VolumeMount&) const = default;
};

struct ContainerConfig {
    std::string name;
    ImageRef image;
    const AppProfile* app = nullptr;   ///< may be null for inert containers
    std::vector<VolumeMount> volumes;
    std::map<std::string, std::string> labels;
    std::map<std::string, std::string> env;
};

enum class ContainerState { kCreated, kStarting, kRunning, kExited, kRemoved };

[[nodiscard]] const char* to_string(ContainerState state);

using ContainerId = std::uint64_t;

struct ContainerInfo {
    ContainerId id = 0;
    ContainerConfig config;
    ContainerState state = ContainerState::kCreated;
    std::uint16_t host_port = 0;        ///< published port (0 = none)
    bool app_ready = false;             ///< listening on its port
    sim::SimTime created_at;
    sim::SimTime started_at;
    sim::SimTime ready_at;
};

struct RuntimeCostModel {
    sim::SimTime create_rootfs = sim::milliseconds(70);  ///< snapshot prep
    sim::SimTime create_per_volume = sim::milliseconds(5);
    sim::SimTime ns_setup_median = sim::milliseconds(280); ///< netns + cgroups
    double ns_setup_sigma = 0.08;
    sim::SimTime runtime_exec = sim::milliseconds(35);   ///< runc + shim
    sim::SimTime stop_time = sim::milliseconds(60);
    sim::SimTime remove_time = sim::milliseconds(40);
};

class ContainerRuntime {
public:
    ContainerRuntime(sim::Simulation& sim, net::Topology& topo, net::NodeId node,
                     net::EndpointDirectory& endpoints, sim::Rng rng,
                     RuntimeCostModel costs = {});

    /// Create a container (rootfs snapshot). The image must be present in
    /// the node's image store -- enforcing that is the caller's (cluster's)
    /// job; the runtime itself only charges the creation cost.
    void create(ContainerConfig config, std::function<void(ContainerId)> done);

    /// Start a created container, publishing `host_port` on the node (0 for
    /// no port). `running` fires when the container process is up (Docker
    /// "running"); the application port opens later, after app init.
    void start(ContainerId id, std::uint16_t host_port, std::function<void()> running);

    /// Stop a running container: closes its port, unbinds the endpoint.
    void stop(ContainerId id, std::function<void()> done);

    /// Remove a stopped (or created) container.
    void remove(ContainerId id, std::function<void()> done);

    [[nodiscard]] const ContainerInfo& info(ContainerId id) const;
    [[nodiscard]] bool exists(ContainerId id) const { return containers_.contains(id); }

    /// All containers whose labels contain every pair in `selector`.
    [[nodiscard]] std::vector<ContainerId>
    list(const std::map<std::string, std::string>& selector = {}) const;

    [[nodiscard]] net::NodeId node() const { return node_; }
    [[nodiscard]] std::size_t active_starts() const { return active_starts_; }

private:
    /// Bounded request concurrency of one container's endpoint. Shared by
    /// the bound handler and every request in service, so a stopped
    /// container still answers the requests it already accepted.
    struct RequestQueue {
        const AppProfile* app = nullptr;
        int active = 0;
        std::deque<net::EndpointDirectory::ReplyFn> waiting;
    };

    void bind_endpoint(ContainerId id);
    void serve(std::shared_ptr<RequestQueue> queue, net::EndpointDirectory::ReplyFn reply);
    sim::SimTime contention(sim::SimTime base) const;

    sim::Simulation& sim_;
    net::Topology& topo_;
    net::NodeId node_;
    net::EndpointDirectory& endpoints_;
    sim::Rng rng_;
    RuntimeCostModel costs_;
    std::map<ContainerId, ContainerInfo> containers_;
    std::map<ContainerId, std::shared_ptr<RequestQueue>> queues_;
    ContainerId next_id_ = 1;
    std::size_t active_starts_ = 0;
};

} // namespace tedge::container
