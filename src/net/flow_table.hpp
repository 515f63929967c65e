// Priority-ordered flow table with idle/hard timeouts, as installed into the
// OVS switch by the SDN controller.
//
// Storage: entries live in a slot vector with a free list. Every mutation
// edits the indexes below in place; nothing rebuilds them.
//
// Lookup fast path: fully-specified entries (src_ip, dst_ip, dst_port, proto
// all concrete -- the common 5G per-flow redirect rule) live in an
// exact-match hash index and resolve in O(1); only wildcard entries are
// linearly scanned, in install order. A higher-priority wildcard still beats
// an exact match, preserving OpenFlow semantics and bit-for-bit the results
// of a full scan in install order.
//
// Expiry: a lazy min-heap holds one (deadline, slot, generation) item per
// live entry with a timeout. A deadline is a lower bound on the entry's real
// expiry: lookups extend idle timers without touching the heap, so a popped
// item whose entry was used since is simply pushed again at its new
// deadline. Overwrites and removals bump the slot's generation, which turns
// the old item stale; stale items are dropped when they surface. Hence when
// the heap top lies in the future, no entry is expired. Simulated time must
// not run backwards between calls.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/flow.hpp"

namespace tedge::net {

class FlowTable {
public:
    using RemovedCallback =
        std::function<void(const FlowEntry&, bool idle /*vs hard*/)>;

    /// Install (or overwrite, if an entry with identical match+priority
    /// exists) a flow entry. Returns true if an existing entry was replaced.
    /// An overwrite keeps the replaced entry's install position.
    bool install(FlowEntry entry, sim::SimTime now);

    /// Highest-priority matching live entry; touches its idle timer and
    /// counters. Expired entries are swept (with callbacks) before matching.
    std::optional<FlowEntry> lookup(const Packet& packet, sim::SimTime now);

    /// Read-only match without touching counters/timers.
    [[nodiscard]] const FlowEntry* peek(const Packet& packet, sim::SimTime now) const;

    /// Remove all entries whose match equals `match`. Returns removed count.
    std::size_t remove(const FlowMatch& match);

    /// Remove all entries carrying `cookie`. Returns removed count.
    std::size_t remove_by_cookie(std::uint64_t cookie);

    /// Remove all entries whose match pins src_ip to `src_ip` (wildcard
    /// src entries are kept: they are not client state). Returns count.
    std::size_t remove_by_src_ip(Ipv4 src_ip);

    /// Expire timed-out entries. They leave the table first; the
    /// removed-callback then sees copies, in install order, so it may
    /// install or remove entries itself.
    std::size_t expire(sim::SimTime now);

    void set_removed_callback(RemovedCallback cb) { removed_cb_ = std::move(cb); }

    [[nodiscard]] std::size_t size() const { return live_; }
    /// Snapshot of the live entries in install order.
    [[nodiscard]] std::vector<FlowEntry> entries() const;
    void clear();

    /// Total lookups that found no live entry (table misses -> packet-ins).
    [[nodiscard]] std::uint64_t miss_count() const { return misses_; }
    [[nodiscard]] std::uint64_t hit_count() const { return hits_; }

private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct ExactKey {
        std::uint32_t src = 0;
        std::uint32_t dst = 0;
        std::uint16_t dst_port = 0;
        std::uint8_t proto = 0;

        bool operator==(const ExactKey&) const = default;
    };
    struct ExactKeyHash {
        std::size_t operator()(const ExactKey& k) const noexcept {
            // splitmix64 finalizer over the packed fields.
            std::uint64_t x = (std::uint64_t{k.src} << 32) | k.dst;
            x ^= (std::uint64_t{k.dst_port} << 8) | k.proto;
            x += 0x9e3779b97f4a7c15ull;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            return static_cast<std::size_t>(x ^ (x >> 31));
        }
    };

    struct Slot {
        FlowEntry entry;
        /// Install sequence of the first install; an overwrite keeps it.
        std::uint64_t seq = 0;
        /// Bumped on overwrite and removal; heap items carrying an older
        /// value are stale.
        std::uint32_t gen = 0;
        /// Next slot with the same exact key (same match, other priority).
        std::uint32_t next_same_key = kNoSlot;
        bool live = false;
    };
    struct Deadline {
        sim::SimTime at;
        std::uint32_t slot = 0;
        std::uint32_t gen = 0;
    };

    [[nodiscard]] static bool fully_specified(const FlowMatch& m) {
        return m.src_ip && m.dst_ip && m.dst_port && m.proto;
    }
    [[nodiscard]] static ExactKey key_of(const FlowMatch& m) {
        return {m.src_ip->value(), m.dst_ip->value(), *m.dst_port,
                static_cast<std::uint8_t>(*m.proto)};
    }
    [[nodiscard]] static ExactKey key_of(const Packet& p) {
        return {p.src_ip.value(), p.dst_ip.value(), p.dst_port,
                static_cast<std::uint8_t>(p.proto)};
    }

    /// Earliest instant at which `e` can expire, if it has any timeout.
    [[nodiscard]] static std::optional<sim::SimTime> expiry_of(const FlowEntry& e);

    /// Slot holding `match` at `priority`, or kNoSlot.
    [[nodiscard]] std::uint32_t find(const FlowMatch& match, std::uint16_t priority) const;
    void push_deadline(std::uint32_t slot);
    /// Take `slot` out of the exact index or wildcard list and free it.
    void erase(std::uint32_t slot);
    template <typename Pred>
    std::size_t erase_if(Pred pred);

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    /// Head of the same-key slot chain for each fully-specified match.
    std::unordered_map<ExactKey, std::uint32_t, ExactKeyHash> exact_;
    /// Slots with at least one wildcard field, in install order.
    std::vector<std::uint32_t> wildcard_;
    /// Min-heap on `at`; see the header comment for the invariant.
    std::vector<Deadline> deadlines_;
    /// expire()'s due slots; a member so sweeps reuse its capacity.
    std::vector<std::uint32_t> due_;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
    RemovedCallback removed_cb_;
    std::uint64_t misses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace tedge::net
