// OVS switch pipeline and TCP/HTTP model tests.
#include <gtest/gtest.h>

#include "net/ovs_switch.hpp"
#include "net/tcp.hpp"

namespace tedge::net {
namespace {

using sim::milliseconds;
using sim::microseconds;

struct SwitchFixture : ::testing::Test {
    void SetUp() override {
        client = topo.add_host("client", Ipv4{10, 0, 1, 1});
        server = topo.add_host("server", Ipv4{10, 0, 0, 2});
        cloud = topo.add_host("cloud", Ipv4{10, 255, 0, 1});
        sw = topo.add_switch("sw");
        topo.add_link(client, sw, microseconds(100), sim::gbit_per_sec(1));
        topo.add_link(server, sw, microseconds(100), sim::gbit_per_sec(10));
        topo.add_link(cloud, sw, milliseconds(20), sim::gbit_per_sec(10));
        ovs = std::make_unique<OvsSwitch>(simulation, topo, sw);
        net = std::make_unique<TcpNet>(simulation, topo, *ovs, endpoints);
    }

    Packet packet_to(Ipv4 dst, std::uint16_t port) {
        Packet p;
        p.ingress = client;
        p.src_ip = topo.node(client).ip;
        p.src_port = 40000;
        p.dst_ip = dst;
        p.dst_port = port;
        return p;
    }

    sim::Simulation simulation;
    Topology topo;
    EndpointDirectory endpoints;
    NodeId client, server, cloud, sw;
    std::unique_ptr<OvsSwitch> ovs;
    std::unique_ptr<TcpNet> net;
};

TEST_F(SwitchFixture, NoControllerForwardsToOriginalDestination) {
    Resolution result;
    bool done = false;
    ovs->submit(packet_to(topo.node(cloud).ip, 80), [&](const Resolution& r) {
        result = r;
        done = true;
    });
    simulation.run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.dropped);
    EXPECT_EQ(result.dest_node, cloud);
}

TEST_F(SwitchFixture, TableHitRewritesDestination) {
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.match.dst_port = 80;
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = server;
    ovs->table().install(entry, simulation.now());

    Resolution result;
    ovs->submit(packet_to(Ipv4{203, 0, 113, 1}, 80),
                [&](const Resolution& r) { result = r; });
    simulation.run();
    EXPECT_EQ(result.dest_node, server);
    EXPECT_EQ(result.effective_dst.ip, topo.node(server).ip);
    EXPECT_EQ(result.effective_dst.port, 8080);
}

TEST_F(SwitchFixture, MissBuffersAndRaisesPacketIn) {
    std::vector<PacketIn> ins;
    ovs->set_controller([&](const PacketIn& in) { ins.push_back(in); });

    bool resolved = false;
    ovs->submit(packet_to(Ipv4{203, 0, 113, 1}, 80),
                [&](const Resolution&) { resolved = true; });
    simulation.run();
    ASSERT_EQ(ins.size(), 1u);
    EXPECT_FALSE(resolved); // held until the controller answers
    EXPECT_EQ(ovs->buffered_packets(), 1u);
    EXPECT_EQ(ovs->packet_in_count(), 1u);

    // Controller installs a redirect and releases the packet.
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.forward_to = server;
    ovs->flow_mod(FlowMod{entry});
    ovs->packet_out(PacketOut{ins[0].buffer_id, true, false});
    simulation.run();
    EXPECT_TRUE(resolved);
    EXPECT_EQ(ovs->buffered_packets(), 0u);
}

TEST_F(SwitchFixture, PacketOutDropDiscards) {
    PacketIn captured;
    ovs->set_controller([&](const PacketIn& in) { captured = in; });
    Resolution result;
    ovs->submit(packet_to(Ipv4{203, 0, 113, 1}, 80),
                [&](const Resolution& r) { result = r; });
    simulation.run();
    ovs->packet_out(PacketOut{captured.buffer_id, false, true});
    simulation.run();
    EXPECT_TRUE(result.dropped);
}

TEST_F(SwitchFixture, PacketOutWithoutTableForwardsOriginal) {
    PacketIn captured;
    ovs->set_controller([&](const PacketIn& in) { captured = in; });
    Resolution result;
    ovs->submit(packet_to(topo.node(cloud).ip, 80),
                [&](const Resolution& r) { result = r; });
    simulation.run();
    ovs->packet_out(PacketOut{captured.buffer_id, false, false});
    simulation.run();
    EXPECT_EQ(result.dest_node, cloud);
}

TEST_F(SwitchFixture, BufferOverflowDrops) {
    OvsSwitch::Config config;
    config.buffer_capacity = 1;
    OvsSwitch tiny(simulation, topo, sw, config);
    tiny.set_controller([](const PacketIn&) {});
    int dropped = 0;
    for (int i = 0; i < 3; ++i) {
        tiny.submit(packet_to(Ipv4{203, 0, 113, 1}, 80), [&](const Resolution& r) {
            if (r.dropped) ++dropped;
        });
    }
    simulation.run();
    EXPECT_EQ(dropped, 2);
}

// ------------------------------------------------------------------ TCP

TEST_F(SwitchFixture, HttpRequestToOpenEndpointSucceeds) {
    topo.open_port(server, 8080);
    endpoints.bind(server, 8080, [&](sim::Bytes, EndpointDirectory::ReplyFn reply) {
        simulation.schedule(microseconds(200),
                            [reply = std::move(reply)]() mutable { reply(512); });
    });
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = server;
    ovs->table().install(entry, simulation.now());

    HttpResult result;
    net->http_request(client, ServiceAddress{Ipv4{203, 0, 113, 1}, 80}, 100,
                      [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, server);
    EXPECT_EQ(result.served_by.port, 8080);
    // Path latency 200us one way: total must exceed 2 RTTs but stay tiny.
    EXPECT_GT(result.time_total, microseconds(600));
    EXPECT_LT(result.time_total, milliseconds(5));
    EXPECT_GT(result.time_total, result.connect_time);
}

TEST_F(SwitchFixture, ClosedPortGivesConnectionRefused) {
    FlowEntry entry;
    entry.match.dst_ip = Ipv4{203, 0, 113, 1};
    entry.action.set_dst_ip = topo.node(server).ip;
    entry.action.set_dst_port = 8080;
    entry.action.forward_to = server;
    ovs->table().install(entry, simulation.now());

    HttpResult result;
    net->http_request(client, ServiceAddress{Ipv4{203, 0, 113, 1}, 80}, 100,
                      [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error, "connection refused");
    EXPECT_EQ(net->requests_failed(), 1u);
}

TEST_F(SwitchFixture, UnroutableDestinationFails) {
    HttpResult result;
    net->http_request(client, ServiceAddress{Ipv4{99, 99, 99, 99}, 80}, 100,
                      [&](const HttpResult& r) { result = r; });
    simulation.run();
    EXPECT_FALSE(result.ok);
}

TEST_F(SwitchFixture, ProbeReportsPortStateAfterOneRtt) {
    topo.open_port(server, 9000);
    bool open = false;
    sim::SimTime answered;
    net->probe(client, server, 9000, [&](bool o) {
        open = o;
        answered = simulation.now();
    });
    simulation.run();
    EXPECT_TRUE(open);
    EXPECT_EQ(answered, microseconds(400)); // 2 x 200us one-way

    bool closed_result = true;
    net->probe(client, server, 9001, [&](bool o) { closed_result = o; });
    simulation.run();
    EXPECT_FALSE(closed_result);
}

TEST_F(SwitchFixture, ProbeSeesPortStateAtSynArrival) {
    // Port opens 150us from now; SYN arrives at 200us -> open.
    simulation.schedule(microseconds(150), [&] { topo.open_port(server, 9100); });
    bool open = false;
    net->probe(client, server, 9100, [&](bool o) { open = o; });
    simulation.run();
    EXPECT_TRUE(open);
}

// The done callback is move-only and owns its captures: whatever the
// outcome, it fires exactly once and is destroyed afterwards (no leaked or
// duplicated exchange).
TEST_F(SwitchFixture, MoveOnlyDoneFiresExactlyOncePerOutcome) {
    struct Token {
        explicit Token(int* counter) : destroyed(counter) {}
        Token(const Token&) = delete;
        Token& operator=(const Token&) = delete;
        ~Token() { ++*destroyed; }
        int* destroyed;
    };
    const NodeId island = topo.add_host("island", Ipv4{10, 0, 9, 9});
    topo.open_port(server, 8080);
    endpoints.bind(server, 8080, [&](sim::Bytes, EndpointDirectory::ReplyFn reply) {
        simulation.schedule(microseconds(200),
                            [reply = std::move(reply)]() mutable { reply(512); });
    });
    topo.open_port(server, 8081); // open, but nothing accepts HTTP

    struct Case {
        ServiceAddress target;
        const char* error; ///< "" for success
    };
    const Case cases[] = {
        {{topo.node(server).ip, 8080}, ""},
        {{Ipv4{99, 99, 99, 99}, 80}, "packet dropped (no route to destination)"},
        {{topo.node(island).ip, 80}, "no path from client to server"},
        {{topo.node(server).ip, 9999}, "connection refused"},
        {{topo.node(server).ip, 8081}, "no endpoint handler bound"},
    };
    for (const auto& c : cases) {
        int calls = 0;
        int destroyed = 0;
        std::string error = "unset";
        net->http_request(client, c.target, 100,
                          [&calls, &error, token = std::make_unique<Token>(
                                               &destroyed)](const HttpResult& r) {
                              ++calls;
                              error = r.error;
                              EXPECT_EQ(r.ok, r.error.empty());
                          });
        simulation.run();
        EXPECT_EQ(calls, 1) << c.error;
        EXPECT_EQ(error, c.error);
        EXPECT_EQ(destroyed, 1) << c.error;
    }
    EXPECT_EQ(net->requests_started(), 5u);
    EXPECT_EQ(net->requests_failed(), 4u);
}

// A request routed to an endpoint keeps that endpoint's handler alive: an
// unbind while the request is still on the wire must not strand it.
TEST_F(SwitchFixture, HandlerUnboundInFlightStillReplies) {
    topo.open_port(server, 8080);
    auto state = std::make_shared<int>(0);
    const std::weak_ptr<int> handler_alive = state;
    bool unbound_before_serving = false;
    endpoints.bind(server, 8080, [&, state](sim::Bytes,
                                            EndpointDirectory::ReplyFn reply) {
        ++*state;
        unbound_before_serving = endpoints.find(server, 8080) == nullptr;
        simulation.schedule(microseconds(200),
                            [reply = std::move(reply)]() mutable { reply(512); });
    });
    state.reset(); // the directory's handler now holds the only reference

    HttpResult result;
    net->http_request(client, ServiceAddress{topo.node(server).ip, 8080}, 100,
                      [&](const HttpResult& r) { result = r; });
    // The SYN resolves at ~110us and the request reaches the server at
    // ~710us; unbind in between.
    bool held_in_flight = false;
    simulation.schedule(microseconds(300), [&] {
        endpoints.unbind(server, 8080);
        held_in_flight = !handler_alive.expired();
    });
    simulation.run();
    EXPECT_TRUE(held_in_flight);
    EXPECT_TRUE(unbound_before_serving);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.server_node, server);
    EXPECT_TRUE(handler_alive.expired()); // released once the request is done
}

TEST(EndpointDirectory, BindFindUnbind) {
    EndpointDirectory directory;
    const NodeId node{3};
    EXPECT_EQ(directory.find(node, 80), nullptr);
    directory.bind(node, 80, [](sim::Bytes, EndpointDirectory::ReplyFn reply) {
        reply(1);
    });
    EXPECT_NE(directory.find(node, 80), nullptr);
    EXPECT_EQ(directory.find(node, 81), nullptr);
    EXPECT_EQ(directory.find(NodeId{4}, 80), nullptr);
    directory.unbind(node, 80);
    EXPECT_EQ(directory.find(node, 80), nullptr);
}

} // namespace
} // namespace tedge::net
