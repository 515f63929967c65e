#include "workload/http_client.hpp"

#include "simcore/metrics_registry.hpp"
#include "simcore/tracer.hpp"

namespace tedge::workload {

HttpClient::HttpClient(net::TcpNet& net, MetricsCollector& metrics)
    : net_(net), metrics_(metrics) {}

void HttpClient::request(net::NodeId client_node, std::uint32_t client_index,
                         const net::ServiceAddress& address,
                         sim::Bytes request_size, std::string_view tag,
                         net::TcpNet::DoneFn done) {
    ++inflight_;
    sim::Simulation& sim = net_.simulation();
    const sim::SimTime sent = sim.now();
    const sim::SymbolId tag_id = metrics_.intern(tag);

    // Each client request opens a fresh trace request: everything the
    // packet-in triggers downstream (scheduling, deployment, flow install)
    // lands on this request's track.
    sim::Tracer* tr = sim.tracer();
    sim::SpanId req_span = 0;
    if (tr != nullptr) {
        const sim::RequestId req = tr->new_request();
        req_span = tr->begin("request", sim::TraceContext{req, 0});
        tr->arg(req_span, "service", std::string(tag));
        tr->arg(req_span, "client", std::to_string(client_index));
    }
    const sim::Tracer::Scope scope(tr, req_span);
    if (auto* m = sim.metrics()) m->counter("workload.requests").inc();

    net_.http_request(client_node, address, request_size,
                      [this, client_index, sent, tag_id, req_span,
                       done = std::move(done)](const net::HttpResult& result) mutable {
        --inflight_;
        sim::Simulation& s = net_.simulation();
        if (auto* t = s.tracer()) {
            if (req_span != 0) {
                t->arg(req_span, "ok", result.ok ? "true" : "false");
                t->end(req_span);
            }
        }
        if (auto* m = s.metrics()) {
            m->counter(result.ok ? "workload.requests_ok"
                                 : "workload.requests_failed")
                .inc();
            m->histogram("workload.request_ms", 0, 10'000, 100)
                .add(result.time_total.ms());
        }
        RequestRecord record;
        record.service = tag_id;
        record.client = client_index;
        record.sent = sent;
        record.ok = result.ok;
        record.time_total = result.time_total;
        record.served_by = result.server_node;
        metrics_.add(record);
        if (result.ok) metrics_.series(tag_id).add_time(result.time_total);
        if (done) done(result);
    });
}

} // namespace tedge::workload
