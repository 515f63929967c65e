#include "net/tcp.hpp"

#include <stdexcept>

namespace tedge::net {

void EndpointDirectory::bind(NodeId node, std::uint16_t port, Handler handler) {
    handlers_[key(node, port)] = std::make_shared<const Handler>(std::move(handler));
}

void EndpointDirectory::unbind(NodeId node, std::uint16_t port) {
    handlers_.erase(key(node, port));
}

EndpointDirectory::HandlerPtr EndpointDirectory::find(NodeId node,
                                                      std::uint16_t port) const {
    const auto it = handlers_.find(key(node, port));
    return it == handlers_.end() ? nullptr : it->second;
}

TcpNet::TcpNet(sim::Simulation& sim, Topology& topo, OvsSwitch& ingress,
               EndpointDirectory& endpoints, Config config)
    : sim_(sim), topo_(topo), ingress_(ingress), endpoints_(endpoints),
      config_(config), log_(sim, "tcp") {}

OvsSwitch* TcpNet::resolve_ingress(NodeId client) {
    if (resolver_ != nullptr) {
        if (OvsSwitch* attached = resolver_->current_ingress(client)) {
            return attached;
        }
    }
    if (config_.strict_attachment) return nullptr;
    // Explicit fallback: a plain counter plus a (lazy) debug line, not a
    // metrics series -- the fig09/fig12 artifact byte-diffs must not change
    // for scenarios that never attach clients.
    ++unattached_fallbacks_;
    log_.debug([&] {
        return "client node " + std::to_string(client.value) +
               " unattached; falling back to primary ingress";
    });
    return &ingress_;
}

OvsSwitch& TcpNet::ingress_for(NodeId client) {
    OvsSwitch* resolved = resolve_ingress(client);
    return resolved != nullptr ? *resolved : ingress_;
}

std::optional<PathInfo> TcpNet::path_via_ingress(NodeId client, NodeId ingress_node,
                                                 NodeId dest) const {
    const auto radio = topo_.path(client, ingress_node);
    if (!radio) return std::nullopt;
    if (dest == ingress_node) return radio;
    const auto backhaul = topo_.path(ingress_node, dest);
    if (!backhaul) return std::nullopt;
    PathInfo combined;
    combined.latency = radio->latency + backhaul->latency;
    combined.bottleneck = std::min(radio->bottleneck, backhaul->bottleneck);
    combined.hops = radio->hops + backhaul->hops;
    return combined;
}

void TcpNet::finish(Exchange& ex) {
    if (!ex.result.ok) ++requests_failed_;
    ex.result.time_total = sim_.now() - ex.started;
    ex.done(ex.result);
}

void TcpNet::fail(Exchange& ex, const char* error) {
    ex.result.error = error;
    finish(ex);
}

void TcpNet::http_request(NodeId client, ServiceAddress target,
                          sim::Bytes request_size, DoneFn done) {
    ++requests_started_;
    auto ex = std::make_unique<Exchange>();
    ex->client = client;
    ex->started = sim_.now();
    ex->request_size = request_size;
    ex->done = std::move(done);
    ex->ingress = resolve_ingress(client);
    if (ex->ingress == nullptr) {
        fail(*ex, "client not attached to any ingress (strict attachment)");
        return;
    }

    Packet& syn = ex->syn;
    syn.ingress = client;
    syn.src_ip = topo_.node(client).ip;
    syn.src_port = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 32768;
    syn.dst_ip = target.ip;
    syn.dst_port = target.port;
    syn.proto = target.proto;
    syn.size = config_.syn_size;
    syn.syn = true;

    // Deliver the SYN into the ingress switch after the client->switch leg.
    const auto to_switch = topo_.path(client, ex->ingress->node());
    if (!to_switch) {
        fail(*ex, "client not connected to ingress switch");
        return;
    }
    const sim::SimTime uplink = to_switch->delivery_time(syn.size);
    sim_.schedule(uplink, [this, ex = std::move(ex)]() mutable {
        Exchange& x = *ex;
        x.ingress->submit(x.syn, [this, ex = std::move(ex)](const Resolution& r) mutable {
            run_exchange(std::move(ex), r);
        });
    });
}

void TcpNet::run_exchange(ExchangePtr ex, const Resolution& r) {
    Exchange& x = *ex;
    x.result.served_by = r.effective_dst;
    if (r.dropped) {
        fail(x, "packet dropped (no route to destination)");
        return;
    }
    x.result.server_node = r.dest_node;

    const auto path = path_via_ingress(x.client, x.ingress->node(), r.dest_node);
    if (!path) {
        fail(x, "no path from client to server");
        return;
    }
    x.path = *path;

    // The SYN already consumed roughly one forward latency getting here; the
    // remaining handshake is SYN-ACK back plus the client's ACK forward.
    // We charge: SYN-ACK (one-way) + ACK (one-way) = 1 RTT after resolution.
    const sim::SimTime handshake_rest = path->rtt();

    if (!topo_.port_open(r.dest_node, r.effective_dst.port, r.effective_dst.proto)) {
        // RST comes back after the server-side one-way latency.
        sim_.schedule(path->latency,
                      [this, ex = std::move(ex)] { fail(*ex, "connection refused"); });
        return;
    }

    x.handler = endpoints_.find(r.dest_node, r.effective_dst.port);
    if (!x.handler) {
        // Port open but nothing accepting HTTP (half-started instance):
        // treat as an unresponsive server -- the request hangs and we model
        // a client-side error after the handshake.
        sim_.schedule(handshake_rest, [this, ex = std::move(ex)] {
            fail(*ex, "no endpoint handler bound");
        });
        return;
    }

    const sim::SimTime pre_server = handshake_rest + path->delivery_time(x.request_size);
    sim_.schedule(pre_server, [this, ex = std::move(ex)]() mutable {
        Exchange& x = *ex;
        x.result.connect_time = sim_.now() - x.started;
        // Held locally: the reply owns the exchange, and a handler that
        // drops its reply must not free itself mid-call.
        const EndpointDirectory::HandlerPtr handler = std::move(x.handler);
        (*handler)(x.request_size, [this, ex = std::move(ex)](sim::Bytes response_size) mutable {
            const sim::SimTime response_leg =
                ex->path.delivery_time(response_size) + config_.per_request_overhead;
            sim_.schedule(response_leg, [this, ex = std::move(ex)] {
                ex->result.ok = true;
                finish(*ex);
            });
        });
    });
}

void TcpNet::probe(NodeId from, NodeId host, std::uint16_t port, ProbeFn done) {
    const auto path = topo_.path(from, host);
    if (!path) {
        sim_.schedule(sim::SimTime::zero(),
                      [done = std::move(done)]() mutable { done(false); });
        return;
    }
    // The answer (SYN-ACK or RST) reflects the port state at the moment the
    // SYN *arrives*, one one-way latency from now.
    sim_.schedule(path->latency, [this, host, port, latency = path->latency,
                                  done = std::move(done)]() mutable {
        const bool open = topo_.port_open(host, port, Proto::kTcp);
        sim_.schedule(latency, [open, done = std::move(done)]() mutable { done(open); });
    });
}

} // namespace tedge::net
