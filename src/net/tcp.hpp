// Analytic TCP/HTTP timing model.
//
// The control plane (first packet of a flow) runs through the OVS switch and
// may be delayed arbitrarily long by the SDN controller (on-demand
// deployment with waiting). Once the destination is resolved, connection
// establishment and data transfer are computed analytically from the path's
// RTT and bottleneck bandwidth -- the same quantity curl's time_total
// measures in the paper (from starting the TCP connection until the full
// HTTP response is received).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/ovs_switch.hpp"
#include "net/topology.hpp"
#include "simcore/logging.hpp"
#include "simcore/simulation.hpp"
#include "simcore/unique_function.hpp"
#include "simcore/units.hpp"

namespace tedge::net {

/// Answers "which ingress switch does this client currently enter through?".
/// Implemented by the session plane (sdn::SessionPlane); defined here so the
/// transport layer depends only on the interface, not on the SDN layer.
/// Returning nullptr means "no attachment known" and the transport applies
/// its configured fallback policy.
class IngressResolver {
public:
    virtual ~IngressResolver() = default;
    [[nodiscard]] virtual OvsSwitch* current_ingress(NodeId client) = 0;
};

/// An application endpoint bound to (node, port). The handler receives the
/// request size and the request's reply function, which it must invoke
/// exactly once (after any simulated service time) with the response size.
/// The reply function owns the in-flight request: move it, never copy it.
///
/// Handlers are shared: a request already routed to an endpoint keeps the
/// handler alive through the refcount even if the endpoint is unbound before
/// the request reaches it.
class EndpointDirectory {
public:
    using ReplyFn = sim::UniqueFunction<void(sim::Bytes response_size)>;
    using Handler = std::function<void(sim::Bytes request_size, ReplyFn reply)>;
    using HandlerPtr = std::shared_ptr<const Handler>;

    void bind(NodeId node, std::uint16_t port, Handler handler);
    void unbind(NodeId node, std::uint16_t port);
    /// The bound handler, or nullptr.
    [[nodiscard]] HandlerPtr find(NodeId node, std::uint16_t port) const;
    [[nodiscard]] std::size_t size() const { return handlers_.size(); }

private:
    static std::uint64_t key(NodeId node, std::uint16_t port) {
        return (std::uint64_t{node.value} << 16) | port;
    }
    std::unordered_map<std::uint64_t, HandlerPtr> handlers_;
};

struct HttpResult {
    bool ok = false;
    std::string error;              ///< non-empty iff !ok
    sim::SimTime time_total;        ///< curl time_total equivalent
    sim::SimTime connect_time;      ///< until TCP handshake completed
    ServiceAddress served_by;       ///< destination after transparent rewrite
    NodeId server_node;
};

/// Facade bundling the simulation, topology, ingress switch, and endpoint
/// directory into the transport API used by clients and the controller.
struct TcpNetConfig {
    sim::Bytes syn_size = 64;
    /// Fixed software overhead per HTTP exchange on top of network transfer
    /// times (kernel, curl, HTTP parsing).
    sim::SimTime per_request_overhead = sim::microseconds(150);
    /// Reject requests from clients with no known attachment instead of
    /// silently entering through the primary ingress. Off by default: ad-hoc
    /// scenarios (benches, probes from helper hosts) never attach.
    bool strict_attachment = false;
};

class TcpNet {
public:
    using Config = TcpNetConfig;
    using DoneFn = sim::UniqueFunction<void(const HttpResult&)>;
    using ProbeFn = sim::UniqueFunction<void(bool open)>;

    TcpNet(sim::Simulation& sim, Topology& topo, OvsSwitch& ingress,
           EndpointDirectory& endpoints, Config config = {});

    /// Wire the attachment source of truth (the session plane). Until set --
    /// or for clients the resolver does not know -- requests fall back to
    /// the primary ingress (counted, see unattached_fallbacks()).
    void set_attachment(IngressResolver* resolver) { resolver_ = resolver; }

    /// The ingress switch a client currently enters through; primary-ingress
    /// fallback when unattached.
    [[nodiscard]] OvsSwitch& ingress_for(NodeId client);

    /// Requests that entered through the primary ingress only because the
    /// client had no attachment. Nonzero here with mobility configured means
    /// a session-plane wiring bug: packets entering at the wrong cell.
    [[nodiscard]] std::uint64_t unattached_fallbacks() const {
        return unattached_fallbacks_;
    }

    /// Perform a full HTTP exchange from `client` to `target` (a registered
    /// cloud service address). The first packet traverses the client's
    /// ingress switch; the redirect (if any) is transparent to the caller.
    /// `done` fires exactly once, whatever the outcome.
    void http_request(NodeId client, ServiceAddress target, sim::Bytes request_size,
                      DoneFn done);

    /// TCP port probe from `from` directly to `host` (no switch involved):
    /// a SYN and its answer. `open` reports whether the port accepted.
    /// Completion takes one RTT between the nodes.
    void probe(NodeId from, NodeId host, std::uint16_t port, ProbeFn done);

    [[nodiscard]] sim::Simulation& simulation() { return sim_; }
    [[nodiscard]] Topology& topology() { return topo_; }
    [[nodiscard]] OvsSwitch& ingress() { return ingress_; }
    [[nodiscard]] EndpointDirectory& endpoints() { return endpoints_; }

    [[nodiscard]] std::uint64_t requests_started() const { return requests_started_; }
    [[nodiscard]] std::uint64_t requests_failed() const { return requests_failed_; }

private:
    /// Everything one in-flight HTTP request needs, owned by exactly one
    /// closure at a time: each stage's scheduled event or callback captures
    /// `[this, std::unique_ptr<Exchange>]` (16 bytes, inside UniqueFunction's
    /// inline buffer) and hands ownership on to the next stage.
    struct Exchange {
        NodeId client;
        OvsSwitch* ingress = nullptr;
        sim::SimTime started;
        sim::Bytes request_size = 0;
        Packet syn;
        HttpResult result;
        PathInfo path;
        EndpointDirectory::HandlerPtr handler; ///< survives unbind in flight
        DoneFn done;
    };
    using ExchangePtr = std::unique_ptr<Exchange>;

    /// Resolved ingress, or nullptr when unattached under strict_attachment.
    [[nodiscard]] OvsSwitch* resolve_ingress(NodeId client);
    void run_exchange(ExchangePtr ex, const Resolution& r);
    /// Complete the exchange: failure accounting, time_total, `done`.
    void finish(Exchange& ex);
    /// Complete the exchange as failed with `error`.
    void fail(Exchange& ex, const char* error);
    /// Concatenated client -> ingress -> dest path: the data path always
    /// traverses the client's current cell. Equal to the direct shortest
    /// path in single-ingress topologies (every route crosses the gNB
    /// anyway); with several cells it pins the radio leg to the *current*
    /// attachment so links to previously-visited cells cannot short-cut.
    [[nodiscard]] std::optional<PathInfo>
    path_via_ingress(NodeId client, NodeId ingress_node, NodeId dest) const;

    sim::Simulation& sim_;
    Topology& topo_;
    OvsSwitch& ingress_;
    EndpointDirectory& endpoints_;
    Config config_;
    IngressResolver* resolver_ = nullptr;
    sim::Logger log_;
    std::uint64_t requests_started_ = 0;
    std::uint64_t requests_failed_ = 0;
    std::uint64_t unattached_fallbacks_ = 0;
    std::uint16_t next_ephemeral_ = 32768;
};

} // namespace tedge::net
