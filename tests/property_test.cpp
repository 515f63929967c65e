// Randomized property tests against reference models:
//  - FlowTable vs a brute-force matcher,
//  - FlowTable vs a dense-vector model under random install, overwrite,
//    lookup, expiry and removal sequences,
//  - yamlite emit/parse round-trip on random documents,
//  - SharedLink byte conservation and completion-order sanity,
//  - Trace CSV round-trip on random traces.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/flow_table.hpp"
#include "net/link.hpp"
#include "simcore/random.hpp"
#include "simcore/simulation.hpp"
#include "workload/trace.hpp"
#include "yamlite/emitter.hpp"
#include "yamlite/parser.hpp"

namespace tedge {
namespace {

// ----------------------------------------------------- FlowTable vs oracle

net::Packet random_packet(sim::Rng& rng) {
    net::Packet p;
    p.src_ip = net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 4)), 0, 0,
                         static_cast<std::uint8_t>(rng.uniform_int(1, 4))};
    p.dst_ip = net::Ipv4{static_cast<std::uint32_t>(rng.uniform_int(1, 4)), 0, 0,
                         static_cast<std::uint8_t>(rng.uniform_int(1, 4))};
    p.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 4));
    return p;
}

net::FlowEntry random_entry(sim::Rng& rng, std::uint64_t cookie) {
    net::FlowEntry e;
    if (rng.chance(0.5)) e.match.src_ip = random_packet(rng).src_ip;
    if (rng.chance(0.7)) e.match.dst_ip = random_packet(rng).dst_ip;
    if (rng.chance(0.7)) e.match.dst_port = random_packet(rng).dst_port;
    if (rng.chance(0.3)) e.match.proto = net::Proto::kTcp;
    e.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 5) * 100);
    e.cookie = cookie;
    return e;
}

/// Brute-force reference: best = highest priority, then most specific, then
/// ... the table keeps insertion order for full ties, which the oracle
/// reproduces by scanning in insertion order and using strict improvement.
const net::FlowEntry* oracle_best(const std::vector<net::FlowEntry>& entries,
                                  const net::Packet& p) {
    const net::FlowEntry* best = nullptr;
    for (const auto& e : entries) {
        if (!e.match.matches(p)) continue;
        if (best == nullptr || e.priority > best->priority ||
            (e.priority == best->priority &&
             e.match.specificity() > best->match.specificity())) {
            best = &e;
        }
    }
    return best;
}

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, MatchesBruteForceOracle) {
    sim::Rng rng(GetParam());
    net::FlowTable table;
    std::vector<net::FlowEntry> reference;
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto entry = random_entry(rng, i + 1);
        // Mirror the table's overwrite rule in the reference model.
        const auto it = std::find_if(
            reference.begin(), reference.end(), [&](const net::FlowEntry& e) {
                return e.match == entry.match && e.priority == entry.priority;
            });
        if (it != reference.end()) {
            *it = entry;
        } else {
            reference.push_back(entry);
        }
        table.install(entry, sim::SimTime::zero());
    }
    ASSERT_EQ(table.size(), reference.size());

    for (int i = 0; i < 500; ++i) {
        const auto packet = random_packet(rng);
        const auto got = table.lookup(packet, sim::SimTime::zero());
        const auto* want = oracle_best(reference, packet);
        if (want == nullptr) {
            EXPECT_FALSE(got) << "query " << i;
        } else {
            ASSERT_TRUE(got) << "query " << i;
            EXPECT_EQ(got->cookie, want->cookie) << "query " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------- FlowTable vs dense-vector model

/// The flow table's semantics written the plain way: one vector in install
/// order, an overwrite keeps its position, every lookup first sweeps every
/// expired entry in vector order, every removal is an erase_if.
struct DenseFlowTableModel {
    struct Removed {
        std::uint64_t cookie = 0;
        bool idle = false;
        std::uint16_t serial = 0; ///< the entry's set_dst_port tag
        bool operator==(const Removed&) const = default;
    };

    std::vector<net::FlowEntry> entries;
    std::vector<Removed> removed;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    bool install(net::FlowEntry e, sim::SimTime now) {
        e.installed_at = now;
        e.last_used = now;
        e.packet_count = 0;
        const auto it =
            std::find_if(entries.begin(), entries.end(), [&](const net::FlowEntry& x) {
                return x.match == e.match && x.priority == e.priority;
            });
        if (it != entries.end()) {
            *it = e;
            return true;
        }
        entries.push_back(e);
        return false;
    }

    std::size_t expire(sim::SimTime now) {
        const auto before = entries.size();
        std::erase_if(entries, [&](const net::FlowEntry& e) {
            if (!e.expired(now)) return false;
            const bool hard = e.hard_timeout > sim::SimTime::zero() &&
                              now - e.installed_at >= e.hard_timeout;
            removed.push_back({e.cookie, !hard, *e.action.set_dst_port});
            return true;
        });
        return before - entries.size();
    }

    std::optional<net::FlowEntry> lookup(const net::Packet& p, sim::SimTime now) {
        expire(now);
        const net::FlowEntry* best = oracle_best(entries, p);
        if (best == nullptr) {
            ++misses;
            return std::nullopt;
        }
        net::FlowEntry& e = entries[static_cast<std::size_t>(best - entries.data())];
        e.last_used = now;
        ++e.packet_count;
        ++hits;
        return e;
    }

    /// peek(): the best live entry without sweeping or touching.
    [[nodiscard]] std::optional<net::FlowEntry> peek(const net::Packet& p,
                                                     sim::SimTime now) const {
        std::vector<net::FlowEntry> live;
        for (const auto& e : entries) {
            if (!e.expired(now)) live.push_back(e);
        }
        const net::FlowEntry* best = oracle_best(live, p);
        return best ? std::optional<net::FlowEntry>(*best) : std::nullopt;
    }

    template <typename Pred>
    std::size_t remove_if(Pred pred) {
        return std::erase_if(entries, pred);
    }
};

bool same_entry(const net::FlowEntry& a, const net::FlowEntry& b) {
    return a.match == b.match && a.action == b.action && a.priority == b.priority &&
           a.idle_timeout == b.idle_timeout && a.hard_timeout == b.hard_timeout &&
           a.cookie == b.cookie && a.installed_at == b.installed_at &&
           a.last_used == b.last_used && a.packet_count == b.packet_count;
}

bool same_result(const std::optional<net::FlowEntry>& a,
                 const std::optional<net::FlowEntry>& b) {
    if (!a || !b) return a.has_value() == b.has_value();
    return same_entry(*a, *b);
}

/// A small key space, so overwrites, priority stacks on one exact key and
/// wildcard/exact contests all happen within a few hundred operations.
net::Packet small_space_packet(sim::Rng& rng) {
    net::Packet p;
    p.src_ip = net::Ipv4{10, 0, 0, static_cast<std::uint8_t>(rng.uniform_int(1, 3))};
    p.dst_ip = net::Ipv4{10, 0, 1, static_cast<std::uint8_t>(rng.uniform_int(1, 3))};
    p.dst_port = static_cast<std::uint16_t>(rng.uniform_int(80, 81));
    p.proto = rng.chance(0.5) ? net::Proto::kTcp : net::Proto::kUdp;
    return p;
}

net::FlowEntry small_space_entry(sim::Rng& rng, std::uint16_t serial) {
    const net::Packet p = small_space_packet(rng);
    net::FlowEntry e;
    const bool exact = rng.chance(0.6);
    if (exact || rng.chance(0.6)) e.match.src_ip = p.src_ip;
    if (exact || rng.chance(0.6)) e.match.dst_ip = p.dst_ip;
    if (exact || rng.chance(0.6)) e.match.dst_port = p.dst_port;
    if (exact || rng.chance(0.6)) e.match.proto = p.proto;
    e.priority = static_cast<std::uint16_t>(rng.uniform_int(1, 3) * 100);
    if (rng.chance(0.8)) e.idle_timeout = sim::milliseconds(rng.uniform_int(200, 5000));
    if (rng.chance(0.3)) e.hard_timeout = sim::milliseconds(rng.uniform_int(1000, 8000));
    // Cookies repeat across a few groups so remove_by_cookie can hit several
    // entries; the serial in the action tells each install apart.
    e.cookie = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
    e.action.set_dst_port = serial;
    return e;
}

class FlowTableDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableDifferential, MatchesDenseVectorModel) {
    sim::Rng rng(GetParam());
    net::FlowTable table;
    std::vector<DenseFlowTableModel::Removed> table_removed;
    table.set_removed_callback([&](const net::FlowEntry& e, bool idle) {
        table_removed.push_back({e.cookie, idle, *e.action.set_dst_port});
    });
    DenseFlowTableModel model;
    const auto pick = [&] {
        return model.entries[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(model.entries.size()) - 1))];
    };
    sim::SimTime now = sim::SimTime::zero();
    std::uint16_t serial = 0;
    int overwrites = 0;
    int reuses = 0;
    for (int op = 0; op < 2000; ++op) {
        now += sim::milliseconds(rng.uniform_int(0, 300));
        const double r = rng.uniform01();
        if (r < 0.30) {
            const auto e = small_space_entry(rng, ++serial);
            ASSERT_EQ(table.install(e, now), model.install(e, now)) << "op " << op;
        } else if (r < 0.40 && !model.entries.empty()) {
            // Overwrite at the same match and priority with a shorter idle
            // timeout: the table must not wait for the old, later deadline.
            auto e = pick();
            e.idle_timeout = e.idle_timeout > sim::SimTime::zero()
                                 ? sim::nanoseconds(e.idle_timeout.ns() / 4)
                                 : sim::milliseconds(100);
            e.action.set_dst_port = ++serial;
            ASSERT_TRUE(table.install(e, now)) << "op " << op;
            ASSERT_TRUE(model.install(e, now)) << "op " << op;
            ++overwrites;
        } else if (r < 0.70) {
            const auto p = small_space_packet(rng);
            const net::FlowEntry* peeked = table.peek(p, now);
            ASSERT_TRUE(same_result(peeked ? std::optional<net::FlowEntry>(*peeked)
                                           : std::nullopt,
                                    model.peek(p, now)))
                << "peek, op " << op;
            ASSERT_TRUE(same_result(table.lookup(p, now), model.lookup(p, now)))
                << "lookup, op " << op;
        } else if (r < 0.76) {
            ASSERT_EQ(table.expire(now), model.expire(now)) << "op " << op;
        } else if (r < 0.82 && !model.entries.empty()) {
            const net::FlowMatch match = pick().match;
            ASSERT_EQ(table.remove(match),
                      model.remove_if([&](const net::FlowEntry& e) { return e.match == match; }))
                << "op " << op;
        } else if (r < 0.87) {
            const auto cookie = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
            ASSERT_EQ(table.remove_by_cookie(cookie),
                      model.remove_if([&](const net::FlowEntry& e) { return e.cookie == cookie; }))
                << "op " << op;
        } else if (r < 0.92) {
            const net::Ipv4 src = small_space_packet(rng).src_ip;
            ASSERT_EQ(table.remove_by_src_ip(src),
                      model.remove_if([&](const net::FlowEntry& e) {
                          return e.match.src_ip && *e.match.src_ip == src;
                      }))
                << "op " << op;
        } else if (!model.entries.empty()) {
            // Remove an entry and reinstall its match right away, so the
            // freed slot is reused under a new generation.
            auto e = pick();
            ASSERT_EQ(table.remove(e.match),
                      model.remove_if([&](const net::FlowEntry& x) { return x.match == e.match; }))
                << "op " << op;
            e.action.set_dst_port = ++serial;
            ASSERT_FALSE(table.install(e, now)) << "op " << op;
            ASSERT_FALSE(model.install(e, now)) << "op " << op;
            ++reuses;
        }

        ASSERT_EQ(table.size(), model.entries.size()) << "op " << op;
        ASSERT_EQ(table.hit_count(), model.hits) << "op " << op;
        ASSERT_EQ(table.miss_count(), model.misses) << "op " << op;
        ASSERT_EQ(table_removed, model.removed) << "op " << op;
        const auto got = table.entries();
        ASSERT_EQ(got.size(), model.entries.size()) << "op " << op;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(same_entry(got[i], model.entries[i])) << "op " << op << " entry " << i;
        }
    }
    // The run must have exercised every path it claims to check.
    EXPECT_GT(overwrites, 0);
    EXPECT_GT(reuses, 0);
    EXPECT_GT(model.hits, 0u);
    EXPECT_GT(model.misses, 0u);
    EXPECT_GT(std::count_if(model.removed.begin(), model.removed.end(),
                            [](const auto& r) { return r.idle; }),
              0);
    EXPECT_GT(std::count_if(model.removed.begin(), model.removed.end(),
                            [](const auto& r) { return !r.idle; }),
              0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------------- yamlite round-trip fuzz

yamlite::Node random_node(sim::Rng& rng, int depth) {
    const double r = rng.uniform01();
    if (depth >= 3 || r < 0.45) {
        // Scalars, including nasty ones the emitter must quote.
        static const char* kScalars[] = {"plain",  "true",   "null", "0",
                                         "a: b",   "# hash", "",     "-dash",
                                         "sp ace", "1.5",    "[x]",  "{a}"};
        return yamlite::Node{
            kScalars[rng.uniform_int(0, std::size(kScalars) - 1)]};
    }
    if (r < 0.7) {
        auto seq = yamlite::Node::make_seq();
        const auto n = rng.uniform_int(0, 4);
        for (int i = 0; i < n; ++i) seq.push_back(random_node(rng, depth + 1));
        return seq;
    }
    auto map = yamlite::Node::make_map();
    const auto n = rng.uniform_int(0, 4);
    for (int i = 0; i < n; ++i) {
        map.set("k" + std::to_string(i), random_node(rng, depth + 1));
    }
    return map;
}

class YamlRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YamlRoundTripFuzz, EmitParseIsIdentity) {
    sim::Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        auto doc = random_node(rng, 0);
        if (doc.is_scalar()) continue; // top level must be a collection
        if (doc.size() == 0) continue;
        const auto text = yamlite::emit(doc);
        const auto reparsed = yamlite::parse(text);
        EXPECT_EQ(doc, reparsed) << "document " << i << ":\n" << text;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlRoundTripFuzz,
                         ::testing::Values(11, 12, 13, 14, 15));

// ------------------------------------------------- SharedLink conservation

class SharedLinkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedLinkFuzz, AllBytesDeliveredAndThroughputBounded) {
    sim::Rng rng(GetParam());
    sim::Simulation simulation;
    net::SharedLink link(simulation, sim::mbit_per_sec(80)); // 10 MB/s

    sim::Bytes total = 0;
    int completed = 0;
    int started = 0;
    for (int i = 0; i < 30; ++i) {
        const auto size = rng.uniform_int(1'000, 2'000'000);
        const auto at = sim::from_seconds(rng.uniform(0.0, 2.0));
        total += size;
        ++started;
        simulation.schedule(at, [&link, &completed, size] {
            link.start_transfer(size, [&completed] { ++completed; });
        });
    }
    simulation.run();
    EXPECT_EQ(completed, started);
    EXPECT_EQ(link.bytes_completed(), total);
    // The pipe can never beat its capacity: finishing `total` bytes takes at
    // least total/rate seconds from the first arrival (arrivals start at 0).
    const double min_seconds = static_cast<double>(total) / 10e6;
    EXPECT_GE(simulation.now().seconds() + 1e-6, min_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedLinkFuzz, ::testing::Values(21, 22, 23, 24));

// -------------------------------------------------------- Trace CSV fuzz

class TraceCsvFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceCsvFuzz, CsvRoundTripPreservesEvents) {
    sim::Rng rng(GetParam());
    workload::Trace trace;
    const auto n = rng.uniform_int(1, 200);
    for (int i = 0; i < n; ++i) {
        workload::TraceEvent event;
        event.at = sim::from_ms(rng.uniform(0.0, 300'000.0));
        event.client = static_cast<std::uint32_t>(rng.uniform_int(0, 19));
        event.service = static_cast<std::uint32_t>(rng.uniform_int(0, 41));
        trace.add(event);
    }
    trace.finalize();
    const auto reparsed = workload::Trace::from_csv(trace.to_csv());
    ASSERT_EQ(reparsed.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        // Times survive within CSV precision (µs); ids exactly.
        EXPECT_NEAR(reparsed.events()[i].at.ms(), trace.events()[i].at.ms(), 1e-3);
        EXPECT_EQ(reparsed.events()[i].client, trace.events()[i].client);
        EXPECT_EQ(reparsed.events()[i].service, trace.events()[i].service);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceCsvFuzz, ::testing::Values(31, 32, 33));

} // namespace
} // namespace tedge
