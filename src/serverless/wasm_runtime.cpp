#include "serverless/wasm_runtime.hpp"

#include <stdexcept>

namespace tedge::serverless {

WasmRuntime::WasmRuntime(sim::Simulation& sim, net::Topology& topo,
                         net::NodeId node, net::EndpointDirectory& endpoints,
                         sim::Rng rng, WasmRuntimeCosts costs)
    : sim_(sim), topo_(topo), node_(node), endpoints_(endpoints), rng_(rng),
      costs_(costs) {
    reaper_ = sim_.schedule_periodic(sim::seconds(5), [this] { reap_idle(); },
                                     /*daemon=*/true);
}

WasmRuntime::~WasmRuntime() {
    reaper_.cancel();
}

void WasmRuntime::deploy(const FunctionSpec& spec, std::uint16_t gateway_port,
                         std::function<void()> done) {
    if (spec.app == nullptr) throw std::invalid_argument("function needs a profile");
    auto& slot = functions_[spec.name];
    if (!slot) slot = std::make_shared<Function>();
    FunctionPtr fn = slot;
    fn->spec = spec;
    fn->gateway_port = gateway_port;
    fn->last_used = sim_.now();

    const sim::SimTime load = fn->module_loaded ? sim::SimTime::zero()
                                                : costs_.module_load;
    sim_.schedule(load, [this, fn, done = std::move(done)] {
        if (!fn->removed) {
            fn->module_loaded = true;
            topo_.open_port(node_, fn->gateway_port);
            endpoints_.bind(node_, fn->gateway_port,
                            [this, fn](sim::Bytes /*request*/,
                                       net::EndpointDirectory::ReplyFn reply) {
                invoke(fn, std::move(reply));
            });
        }
        done();
    });
}

void WasmRuntime::remove(const std::string& name, std::function<void()> done) {
    const auto it = functions_.find(name);
    if (it == functions_.end()) {
        sim_.schedule(sim::SimTime::zero(), std::move(done));
        return;
    }
    Function& fn = *it->second;
    topo_.close_port(node_, fn.gateway_port);
    endpoints_.unbind(node_, fn.gateway_port);
    fn.removed = true;
    functions_.erase(it);
    sim_.schedule(sim::milliseconds(1), std::move(done));
}

bool WasmRuntime::deployed(const std::string& name) const {
    return functions_.contains(name);
}

int WasmRuntime::warm_instances(const std::string& name) const {
    const auto it = functions_.find(name);
    return it == functions_.end() ? 0 : it->second->warm;
}

void WasmRuntime::prewarm(const std::string& name, int count,
                          std::function<void()> done) {
    FunctionPtr fn = functions_.at(name);
    const int to_start =
        std::min(count, fn->spec.max_instances - fn->warm - fn->busy);
    if (to_start <= 0) {
        sim_.schedule(sim::SimTime::zero(), std::move(done));
        return;
    }
    // Instantiations run concurrently; completion when the slowest is up.
    auto remaining = std::make_shared<int>(to_start);
    for (int i = 0; i < to_start; ++i) {
        const sim::SimTime cold = sim::from_seconds(rng_.lognormal_median(
            costs_.cold_start_median.seconds(), costs_.cold_start_sigma));
        sim_.schedule(cold, [this, fn, remaining, done] {
            if (!fn->removed) {
                ++cold_starts_;
                ++fn->warm;
            }
            if (--*remaining == 0) done();
        });
    }
}

void WasmRuntime::cool_down(const std::string& name) {
    const auto it = functions_.find(name);
    if (it != functions_.end()) it->second->warm = 0;
}

void WasmRuntime::invoke(const FunctionPtr& fn,
                         net::EndpointDirectory::ReplyFn reply) {
    ++invocations_;
    fn->last_used = sim_.now();

    if (fn->warm > 0) {
        --fn->warm;
        serve(fn, std::move(reply), sim::SimTime::zero());
        return;
    }
    if (fn->warm + fn->busy < fn->spec.max_instances) {
        // Cold start inline: instantiate, then serve.
        ++cold_starts_;
        const sim::SimTime cold = sim::from_seconds(rng_.lognormal_median(
            costs_.cold_start_median.seconds(), costs_.cold_start_sigma));
        serve(fn, std::move(reply), cold);
        return;
    }
    // At capacity: queue until an instance frees up.
    fn->backlog.push_back(std::move(reply));
}

void WasmRuntime::serve(const FunctionPtr& fn,
                        net::EndpointDirectory::ReplyFn reply,
                        sim::SimTime extra_delay) {
    ++fn->busy;
    const sim::SimTime service = fn->spec.app->sample_service(rng_);
    sim_.schedule(extra_delay + costs_.invoke_overhead + service,
                  [this, fn, reply = std::move(reply)]() mutable {
        finish_invocation(fn, std::move(reply));
    });
}

void WasmRuntime::finish_invocation(const FunctionPtr& fn,
                                    net::EndpointDirectory::ReplyFn reply) {
    --fn->busy;
    ++fn->warm; // the instance stays warm for the keep-alive window
    reply(fn->spec.app->response_size);
    // A removed function keeps serving its backlog: those requests were
    // accepted before the remove.
    if (!fn->backlog.empty()) {
        auto next = std::move(fn->backlog.front());
        fn->backlog.pop_front();
        --fn->warm;
        serve(fn, std::move(next), sim::SimTime::zero());
    }
}

void WasmRuntime::reap_idle() {
    for (auto& [name, fn] : functions_) {
        if (fn->warm > 0 && sim_.now() - fn->last_used >= costs_.keep_alive) {
            fn->warm = 0; // reclaim the idle pool
        }
    }
}

} // namespace tedge::serverless
