#include "container/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "simcore/metrics_registry.hpp"
#include "simcore/tracer.hpp"

namespace tedge::container {

const char* to_string(ContainerState state) {
    switch (state) {
        case ContainerState::kCreated: return "created";
        case ContainerState::kStarting: return "starting";
        case ContainerState::kRunning: return "running";
        case ContainerState::kExited: return "exited";
        case ContainerState::kRemoved: return "removed";
    }
    return "?";
}

ContainerRuntime::ContainerRuntime(sim::Simulation& sim, net::Topology& topo,
                                   net::NodeId node,
                                   net::EndpointDirectory& endpoints, sim::Rng rng,
                                   RuntimeCostModel costs)
    : sim_(sim), topo_(topo), node_(node), endpoints_(endpoints), rng_(rng),
      costs_(costs) {}

sim::SimTime ContainerRuntime::contention(sim::SimTime base) const {
    // Concurrent container starts compete for CPU; below the core count the
    // slowdown is negligible, beyond it roughly linear.
    const auto cores = std::max<std::uint32_t>(topo_.node(node_).cpu_cores, 1);
    const double factor = std::max(
        1.0, static_cast<double>(active_starts_) / static_cast<double>(cores));
    return sim::from_seconds(base.seconds() * factor);
}

void ContainerRuntime::create(ContainerConfig config,
                              std::function<void(ContainerId)> done) {
    const ContainerId id = next_id_++;
    ContainerInfo info;
    info.id = id;
    info.config = std::move(config);
    info.state = ContainerState::kCreated;
    containers_.emplace(id, std::move(info));

    const sim::SimTime cost =
        costs_.create_rootfs +
        costs_.create_per_volume *
            static_cast<std::int64_t>(containers_.at(id).config.volumes.size());
    sim::SpanId span = 0;
    if (auto* tr = sim_.tracer()) {
        span = tr->begin("container.create");
        tr->arg(span, "image", containers_.at(id).config.image.full());
    }
    sim_.schedule(cost, [this, id, span, done = std::move(done)] {
        containers_.at(id).created_at = sim_.now();
        if (auto* tr = sim_.tracer()) {
            if (span != 0) tr->end(span);
        }
        done(id);
    });
}

void ContainerRuntime::start(ContainerId id, std::uint16_t host_port,
                             std::function<void()> running) {
    auto& info = containers_.at(id);
    if (info.state != ContainerState::kCreated && info.state != ContainerState::kExited) {
        throw std::logic_error("start: container not in a startable state");
    }
    info.state = ContainerState::kStarting;
    info.host_port = host_port;
    ++active_starts_;
    if (auto* m = sim_.metrics()) m->counter("container.starts").inc();

    const sim::SimTime ns_setup = sim::from_seconds(
        rng_.lognormal_median(costs_.ns_setup_median.seconds(), costs_.ns_setup_sigma));
    const sim::SimTime start_cost = contention(ns_setup + costs_.runtime_exec);

    sim::SpanId span = 0;
    if (auto* tr = sim_.tracer()) {
        span = tr->begin("container.start");
        tr->arg(span, "name", info.config.name);
    }
    sim_.schedule(start_cost, [this, id, span, running = std::move(running)] {
        --active_starts_;
        if (auto* tr = sim_.tracer()) {
            if (span != 0) tr->end(span); // start ends when the process runs
        }
        auto& c = containers_.at(id);
        if (c.state != ContainerState::kStarting) return; // stopped meanwhile
        c.state = ContainerState::kRunning;
        c.started_at = sim_.now();
        running();

        // Application initialisation until the port accepts connections.
        const AppProfile* app = c.config.app;
        if (app == nullptr || c.host_port == 0) {
            c.app_ready = true; // nothing to listen on; "ready" immediately
            c.ready_at = sim_.now();
            if (auto* tr = sim_.tracer()) tr->instant("container.ready");
            return;
        }
        const sim::SimTime init = app->sample_init(rng_);
        sim_.schedule(init, [this, id] {
            auto& cc = containers_.at(id);
            if (cc.state != ContainerState::kRunning) return;
            cc.app_ready = true;
            cc.ready_at = sim_.now();
            if (auto* tr = sim_.tracer()) tr->instant("container.ready");
            topo_.open_port(node_, cc.host_port);
            bind_endpoint(id);
        });
    });
}

void ContainerRuntime::bind_endpoint(ContainerId id) {
    auto& info = containers_.at(id);
    auto queue = std::make_shared<RequestQueue>();
    queue->app = info.config.app;
    queues_[id] = queue;

    endpoints_.bind(node_, info.host_port,
                    [this, queue](sim::Bytes /*request_size*/,
                                  net::EndpointDirectory::ReplyFn reply) {
        if (queue->active < queue->app->concurrency) {
            serve(queue, std::move(reply));
        } else {
            queue->waiting.push_back(std::move(reply));
        }
    });
}

void ContainerRuntime::serve(std::shared_ptr<RequestQueue> queue,
                             net::EndpointDirectory::ReplyFn reply) {
    ++queue->active;
    const AppProfile* app = queue->app;
    const sim::SimTime service = app->sample_service(rng_);
    sim_.schedule(service, [this, queue = std::move(queue),
                            reply = std::move(reply)]() mutable {
        --queue->active;
        reply(queue->app->response_size);
        if (!queue->waiting.empty() && queue->active < queue->app->concurrency) {
            auto next = std::move(queue->waiting.front());
            queue->waiting.pop_front();
            serve(std::move(queue), std::move(next));
        }
    });
}

void ContainerRuntime::stop(ContainerId id, std::function<void()> done) {
    auto& info = containers_.at(id);
    if (info.state == ContainerState::kRemoved) {
        throw std::logic_error("stop: container removed");
    }
    const bool was_ready = info.app_ready;
    info.state = ContainerState::kExited;
    info.app_ready = false;
    if (was_ready && info.host_port != 0) {
        topo_.close_port(node_, info.host_port);
        endpoints_.unbind(node_, info.host_port);
    }
    queues_.erase(id);
    sim_.schedule(costs_.stop_time, std::move(done));
}

void ContainerRuntime::remove(ContainerId id, std::function<void()> done) {
    auto& info = containers_.at(id);
    if (info.state == ContainerState::kRunning ||
        info.state == ContainerState::kStarting) {
        throw std::logic_error("remove: container still running");
    }
    info.state = ContainerState::kRemoved;
    sim_.schedule(costs_.remove_time, [this, id, done = std::move(done)] {
        containers_.erase(id);
        done();
    });
}

const ContainerInfo& ContainerRuntime::info(ContainerId id) const {
    return containers_.at(id);
}

std::vector<ContainerId>
ContainerRuntime::list(const std::map<std::string, std::string>& selector) const {
    std::vector<ContainerId> out;
    for (const auto& [id, info] : containers_) {
        if (info.state == ContainerState::kRemoved) continue;
        bool match = true;
        for (const auto& [k, v] : selector) {
            const auto it = info.config.labels.find(k);
            if (it == info.config.labels.end() || it->second != v) {
                match = false;
                break;
            }
        }
        if (match) out.push_back(id);
    }
    return out;
}

} // namespace tedge::container
