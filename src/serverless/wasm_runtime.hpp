// WebAssembly serverless runtime (the paper's future work, §VIII: "enabling
// the side-by-side operation of containers and serverless applications").
//
// Modelled after the WASM edge runtimes the paper cites (Gackstatter et al.
// [7], Faasm [25], aWsm [24]): modules are small, cold starts are
// milliseconds (AoT-compiled module instantiation) instead of the hundreds
// of milliseconds a container namespace setup costs, and idle instances are
// reclaimed after a keep-alive window. Requests that arrive with no warm
// instance pay the cold-start latency inline -- the serverless analogue of
// "on-demand deployment with waiting".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "container/app_profile.hpp"
#include "container/image.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"

namespace tedge::serverless {

/// A deployable function: a WASM module (distributed through the same
/// registry substrate as container images; module = single-layer "image")
/// plus its behavioural profile.
struct FunctionSpec {
    std::string name;
    container::ImageRef module;          ///< module reference in a registry
    const container::AppProfile* app = nullptr;
    std::uint16_t port = 0;              ///< port the gateway listens on
    int max_instances = 64;              ///< per-node instance cap
};

struct WasmRuntimeCosts {
    /// AoT-compiled module instantiation (linear memory setup, imports).
    sim::SimTime cold_start_median = sim::milliseconds(6);
    double cold_start_sigma = 0.25;
    /// One-time module compile/validate on first load from the store.
    sim::SimTime module_load = sim::milliseconds(25);
    /// Warm instances are reclaimed after this idle window.
    sim::SimTime keep_alive = sim::seconds(30);
    /// Added per request by the gateway/runtime trampoline.
    sim::SimTime invoke_overhead = sim::microseconds(40);
};

/// Per-node WASM function runtime with a warm-instance pool and a gateway
/// endpoint per deployed function.
class WasmRuntime {
public:
    WasmRuntime(sim::Simulation& sim, net::Topology& topo, net::NodeId node,
                net::EndpointDirectory& endpoints, sim::Rng rng,
                WasmRuntimeCosts costs = {});
    ~WasmRuntime();

    /// Deploy a function: loads the module (must already be in the local
    /// module store -- the cluster pulls it first), binds the gateway port,
    /// and serves requests with scale-from-zero semantics.
    void deploy(const FunctionSpec& spec, std::uint16_t gateway_port,
                std::function<void()> done);

    /// Remove a function: unbind the gateway, drop warm instances. Requests
    /// already accepted (in flight or backlogged) still get their reply;
    /// a pending deploy or prewarm completion only fires its `done`.
    void remove(const std::string& name, std::function<void()> done);

    [[nodiscard]] bool deployed(const std::string& name) const;
    [[nodiscard]] int warm_instances(const std::string& name) const;
    [[nodiscard]] std::uint64_t cold_starts() const { return cold_starts_; }
    [[nodiscard]] std::uint64_t invocations() const { return invocations_; }
    [[nodiscard]] net::NodeId node() const { return node_; }

    /// Pre-warm up to `count` instances (the serverless analogue of Scale Up).
    void prewarm(const std::string& name, int count, std::function<void()> done);

    /// Drop the warm pool immediately (explicit scale-to-zero). Busy
    /// instances finish their requests.
    void cool_down(const std::string& name);

private:
    struct Function {
        FunctionSpec spec;
        std::uint16_t gateway_port = 0;
        bool module_loaded = false;
        int warm = 0;      ///< idle instances ready to serve
        int busy = 0;      ///< instances currently serving
        std::deque<net::EndpointDirectory::ReplyFn> backlog; ///< waiting for capacity
        sim::SimTime last_used;
        bool removed = false;  ///< remove() ran; only accepted requests drain
    };
    /// Scheduled callbacks hold the function itself, not its name: after a
    /// remove() (or a remove and redeploy) a name lookup would miss or hit
    /// the wrong function.
    using FunctionPtr = std::shared_ptr<Function>;

    void invoke(const FunctionPtr& fn, net::EndpointDirectory::ReplyFn reply);
    /// Occupy an instance for one request, `extra_delay` (a cold start)
    /// ahead of the invocation overhead and service time.
    void serve(const FunctionPtr& fn, net::EndpointDirectory::ReplyFn reply,
               sim::SimTime extra_delay);
    void finish_invocation(const FunctionPtr& fn,
                           net::EndpointDirectory::ReplyFn reply);
    void reap_idle();

    sim::Simulation& sim_;
    net::Topology& topo_;
    net::NodeId node_;
    net::EndpointDirectory& endpoints_;
    sim::Rng rng_;
    WasmRuntimeCosts costs_;
    std::map<std::string, FunctionPtr> functions_;
    sim::Simulation::PeriodicHandle reaper_;
    std::uint64_t cold_starts_ = 0;
    std::uint64_t invocations_ = 0;
};

} // namespace tedge::serverless
