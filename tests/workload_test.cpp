// Workload tests: trace model, bigFlows synthesis marginals, request
// streams, metrics collection, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ovs_switch.hpp"
#include "net/tcp.hpp"
#include "workload/bigflows.hpp"
#include "workload/http_client.hpp"
#include "workload/metrics.hpp"
#include "workload/stream.hpp"
#include "workload/trace.hpp"

namespace tedge::workload {
namespace {

TEST(Trace, FinalizeSortsByTime) {
    Trace trace;
    trace.add({sim::seconds(5), 0, 1});
    trace.add({sim::seconds(1), 2, 0});
    trace.add({sim::seconds(3), 1, 2});
    trace.finalize();
    EXPECT_EQ(trace.events()[0].at, sim::seconds(1));
    EXPECT_EQ(trace.events()[2].at, sim::seconds(5));
    EXPECT_EQ(trace.service_count(), 3u);
    EXPECT_EQ(trace.client_count(), 3u);
    EXPECT_EQ(trace.horizon(), sim::seconds(5));
}

TEST(Trace, CsvRoundTrip) {
    Trace trace;
    trace.add({sim::milliseconds(1500), 3, 7});
    trace.add({sim::milliseconds(200), 1, 2});
    trace.finalize();
    const auto csv = trace.to_csv();
    EXPECT_NE(csv.find("time_ms,client,service"), std::string::npos);
    const auto parsed = Trace::from_csv(csv);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed.events()[0].at, sim::milliseconds(200));
    EXPECT_EQ(parsed.events()[0].client, 1u);
    EXPECT_EQ(parsed.events()[1].service, 7u);
}

TEST(Trace, FromCsvRejectsGarbage) {
    EXPECT_THROW(Trace::from_csv("time_ms,client,service\n1.0,2\n"),
                 std::invalid_argument);
}

TEST(Trace, EmptyTraceBehaviour) {
    Trace trace;
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.service_count(), 0u);
    EXPECT_EQ(trace.horizon(), sim::SimTime::zero());
    EXPECT_TRUE(trace.requests_per_service().empty());
}

// --------------------------------------------------------------- bigflows

class BigFlowsSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigFlowsSweep, PublishedMarginalsHold) {
    BigFlowsOptions options;
    options.seed = GetParam();
    const auto trace = synthesize_bigflows(options);

    // Paper fig. 9: 1708 requests, 42 services, five minutes, >= 20 each.
    EXPECT_EQ(trace.size(), 1708u);
    EXPECT_EQ(trace.service_count(), 42u);
    EXPECT_LE(trace.horizon(), sim::seconds(300));
    const auto per_service = trace.requests_per_service();
    for (const auto count : per_service) EXPECT_GE(count, 20u);
    // Heavy-tailed: the most popular service clearly exceeds the floor.
    EXPECT_GE(*std::max_element(per_service.begin(), per_service.end()), 60u);
    // Clients are within range.
    EXPECT_LE(trace.client_count(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigFlowsSweep, ::testing::Values(1, 2, 3, 17, 42));

TEST(BigFlows, DeterministicPerSeed) {
    BigFlowsOptions options;
    options.seed = 9;
    const auto a = synthesize_bigflows(options);
    const auto b = synthesize_bigflows(options);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].at, b.events()[i].at);
        EXPECT_EQ(a.events()[i].client, b.events()[i].client);
        EXPECT_EQ(a.events()[i].service, b.events()[i].service);
    }
}

TEST(BigFlows, DifferentSeedsDiffer) {
    BigFlowsOptions a_options;
    a_options.seed = 1;
    BigFlowsOptions b_options;
    b_options.seed = 2;
    const auto a = synthesize_bigflows(a_options);
    const auto b = synthesize_bigflows(b_options);
    bool any_difference = false;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (a.events()[i].at != b.events()[i].at) {
            any_difference = true;
            break;
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST(BigFlows, RejectsImpossibleOptions) {
    BigFlowsOptions options;
    options.services = 42;
    options.requests = 100; // < 42 * 20
    EXPECT_THROW(synthesize_bigflows(options), std::invalid_argument);
    options.services = 0;
    EXPECT_THROW(synthesize_bigflows(options), std::invalid_argument);
}

TEST(BigFlows, CustomShapes) {
    BigFlowsOptions options;
    options.services = 5;
    options.requests = 200;
    options.horizon = sim::seconds(60);
    options.clients = 3;
    options.min_requests = 10;
    options.seed = 4;
    const auto trace = synthesize_bigflows(options);
    EXPECT_EQ(trace.size(), 200u);
    EXPECT_EQ(trace.service_count(), 5u);
    EXPECT_LE(trace.client_count(), 3u);
    EXPECT_LE(trace.horizon(), sim::seconds(60));
}

// ---------------------------------------------------------------- streams

TEST(RequestStream, BigFlowsStreamMatchesMaterializedTrace) {
    BigFlowsOptions options;
    options.seed = 7;
    const auto trace = synthesize_bigflows(options);
    BigFlowsStream stream(options);

    ASSERT_EQ(stream.total(), trace.size());
    ASSERT_EQ(stream.horizon(), trace.horizon());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto event = stream.next();
        ASSERT_TRUE(event.has_value()) << "stream ended early at " << i;
        EXPECT_EQ(event->at, trace.events()[i].at) << "index " << i;
        EXPECT_EQ(event->client, trace.events()[i].client) << "index " << i;
        EXPECT_EQ(event->service, trace.events()[i].service) << "index " << i;
    }
    EXPECT_FALSE(stream.next().has_value());
}

TEST(RequestStream, TraceViewStreamsEveryEventInOrder) {
    Trace trace;
    trace.add({sim::seconds(2), 1, 0});
    trace.add({sim::seconds(1), 0, 1});
    trace.finalize();
    TraceView view(trace);
    const auto first = view.next();
    const auto second = view.next();
    ASSERT_TRUE(first && second);
    EXPECT_EQ(first->at, sim::seconds(1));
    EXPECT_EQ(second->at, sim::seconds(2));
    EXPECT_FALSE(view.next().has_value());
    EXPECT_EQ(view.total(), trace.size());
    EXPECT_EQ(view.horizon(), trace.horizon());
}

TEST(RequestStream, PoissonStreamDeterministicOrderedAndBounded) {
    PoissonStream::Options options;
    options.services = 8;
    options.clients = 5;
    options.limit = 2000;
    options.seed = 11;

    PoissonStream a(options);
    PoissonStream b(options);
    sim::SimTime previous = sim::SimTime::zero();
    std::size_t emitted = 0;
    while (const auto event = a.next()) {
        const auto twin = b.next();
        ASSERT_TRUE(twin.has_value());
        EXPECT_EQ(event->at, twin->at);
        EXPECT_EQ(event->client, twin->client);
        EXPECT_EQ(event->service, twin->service);
        EXPECT_GE(event->at, previous); // nondecreasing merge
        EXPECT_LT(event->service, options.services);
        EXPECT_LT(event->client, options.clients);
        previous = event->at;
        ++emitted;
    }
    EXPECT_EQ(emitted, options.limit);
    EXPECT_FALSE(b.next().has_value());
}

TEST(RequestStream, PoissonStreamCoversAllServices) {
    PoissonStream::Options options;
    options.services = 4;
    options.limit = 1000;
    PoissonStream stream(options);
    std::vector<std::size_t> hits(options.services, 0);
    while (const auto event = stream.next()) ++hits[event->service];
    for (std::size_t s = 0; s < hits.size(); ++s) {
        EXPECT_GT(hits[s], 0u) << "service " << s << " never arrived";
    }
}

// ---------------------------------------------------------------- metrics

TEST(MetricsCollector, RecordsAndSeries) {
    MetricsCollector metrics;
    RequestRecord ok_record;
    ok_record.service = metrics.intern("svc0");
    ok_record.ok = true;
    ok_record.time_total = sim::milliseconds(10);
    metrics.add(ok_record);
    metrics.series("svc0").add_time(ok_record.time_total);

    RequestRecord failed;
    failed.service = metrics.intern("svc0");
    failed.ok = false;
    metrics.add(failed);

    EXPECT_EQ(metrics.count(), 2u);
    EXPECT_EQ(metrics.failures(), 1u);
    ASSERT_NE(metrics.find_series("svc0"), nullptr);
    EXPECT_DOUBLE_EQ(metrics.find_series("svc0")->median(), 10.0);
    EXPECT_EQ(metrics.find_series("nope"), nullptr);
    EXPECT_EQ(metrics.tags().size(), 1u);
    metrics.clear();
    EXPECT_EQ(metrics.count(), 0u);
}

// HttpClient interns each request's tag into its collector. A client and a
// server behind a controller-less switch: "warm" requests succeed, requests
// to an unroutable address ("dead") fail.
struct InternedTagsFixture : ::testing::Test {
    void SetUp() override {
        client_node = topo.add_host("client", net::Ipv4{10, 0, 1, 1});
        server = topo.add_host("server", net::Ipv4{10, 0, 0, 2});
        const auto sw = topo.add_switch("sw");
        topo.add_link(client_node, sw, sim::microseconds(100), sim::gbit_per_sec(1));
        topo.add_link(server, sw, sim::microseconds(100), sim::gbit_per_sec(1));
        topo.open_port(server, 80);
        endpoints.bind(server, 80, [](sim::Bytes, net::EndpointDirectory::ReplyFn reply) {
            reply(256);
        });
        ovs = std::make_unique<net::OvsSwitch>(simulation, topo, sw);
        tcp = std::make_unique<net::TcpNet>(simulation, topo, *ovs, endpoints);
        client = std::make_unique<HttpClient>(*tcp, metrics);
    }

    void request(std::string_view tag, net::Ipv4 ip) {
        client->request(client_node, 0, net::ServiceAddress{ip, 80}, 100, tag);
    }
    net::Ipv4 server_ip() const { return topo.node(server).ip; }

    sim::Simulation simulation;
    net::Topology topo;
    net::EndpointDirectory endpoints;
    net::NodeId client_node, server;
    std::unique_ptr<net::OvsSwitch> ovs;
    std::unique_ptr<net::TcpNet> tcp;
    MetricsCollector metrics;
    std::unique_ptr<HttpClient> client;
};

TEST_F(InternedTagsFixture, AllFailedTagHasNoSeries) {
    request("dead", net::Ipv4{99, 99, 99, 99});
    request("dead", net::Ipv4{99, 99, 99, 99});
    request("warm", server_ip());
    simulation.run();
    ASSERT_EQ(metrics.count(), 3u);
    EXPECT_EQ(metrics.failures(), 2u);
    EXPECT_EQ(metrics.find_series("dead"), nullptr);
    ASSERT_NE(metrics.find_series("warm"), nullptr);
    EXPECT_EQ(metrics.find_series("warm")->count(), 1u);
    EXPECT_EQ(metrics.tags(), std::vector<std::string>{"warm"});
}

TEST_F(InternedTagsFixture, RecordTagRoundTrips) {
    request("svc7", server_ip());
    request("svc3", net::Ipv4{99, 99, 99, 99});
    simulation.run();
    std::vector<std::string> names;
    for (const auto& record : metrics.records()) {
        names.push_back(metrics.tag_name(record.service));
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"svc3", "svc7"}));
    EXPECT_EQ(metrics.intern("svc7"), metrics.intern("svc7"));
    EXPECT_NE(metrics.intern("svc7"), metrics.intern("svc3"));
}

TEST_F(InternedTagsFixture, ClearKeepsIdsOfInflightRequests) {
    request("warm", server_ip());
    const sim::SymbolId id = metrics.intern("warm");
    metrics.clear(); // the request is still in flight and holds `id`
    EXPECT_EQ(metrics.intern("warm"), id);
    EXPECT_TRUE(metrics.tags().empty());
    simulation.run();
    ASSERT_EQ(metrics.count(), 1u);
    EXPECT_EQ(metrics.records()[0].service, id);
    EXPECT_EQ(metrics.tag_name(id), "warm");
    ASSERT_NE(metrics.find_series("warm"), nullptr);
    EXPECT_EQ(metrics.tags(), std::vector<std::string>{"warm"});
}

TEST(TextTable, AlignsColumns) {
    TextTable table({"Name", "value"});
    table.add_row({"a", "1"});
    table.add_row({"longer-name", "123456"});
    table.add_row({"short"}); // missing cells padded
    const auto text = table.str();
    EXPECT_NE(text.find("Name"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("------"), std::string::npos);
    // Every line has the same length (fixed-width table).
    std::size_t first_line_len = text.find('\n');
    EXPECT_GT(first_line_len, 0u);
}

TEST(TextTable, NumFormatting) {
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(1000.0, 0), "1000");
}

} // namespace
} // namespace tedge::workload
