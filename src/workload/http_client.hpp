// timecurl-style HTTP client (paper [30]): issues requests through the
// transparent edge and records curl's time_total (from starting the TCP
// connection until the full response arrives). Feeds a MetricsCollector.
#pragma once

#include <string_view>

#include "net/tcp.hpp"
#include "workload/metrics.hpp"

namespace tedge::workload {

class HttpClient {
public:
    HttpClient(net::TcpNet& net, MetricsCollector& metrics);

    /// GET/POST `request_size` bytes from `client` to the registered
    /// address; the record lands in the collector under `tag` (interned) and
    /// a successful request's time_total is also added to the collector's
    /// series(tag) in milliseconds. `done`, if set, fires once afterwards.
    void request(net::NodeId client_node, std::uint32_t client_index,
                 const net::ServiceAddress& address, sim::Bytes request_size,
                 std::string_view tag, net::TcpNet::DoneFn done = {});

    [[nodiscard]] std::uint64_t inflight() const { return inflight_; }

private:
    net::TcpNet& net_;
    MetricsCollector& metrics_;
    std::uint64_t inflight_ = 0;
};

} // namespace tedge::workload
