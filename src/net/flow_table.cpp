#include "net/flow_table.hpp"

#include <algorithm>
#include <utility>

namespace tedge::net {

std::string FlowMatch::str() const {
    // Direct append, no ostringstream: this runs on log paths where the
    // stream's locale/alloc setup dominates the cost of the text itself.
    std::string out;
    out.reserve(64);
    out += "{src=";
    out += src_ip ? src_ip->str() : "*";
    out += " dst=";
    out += dst_ip ? dst_ip->str() : "*";
    out += ':';
    if (dst_port) {
        out += std::to_string(*dst_port);
    } else {
        out += '*';
    }
    out += " proto=";
    out += proto ? to_string(*proto) : "*";
    out += '}';
    return out;
}

namespace {

/// std::*_heap comparator that makes deadlines_ a min-heap.
struct Later {
    template <typename D>
    bool operator()(const D& a, const D& b) const { return a.at > b.at; }
};

} // namespace

std::optional<sim::SimTime> FlowTable::expiry_of(const FlowEntry& e) {
    std::optional<sim::SimTime> t;
    if (e.hard_timeout > sim::SimTime::zero()) t = e.installed_at + e.hard_timeout;
    if (e.idle_timeout > sim::SimTime::zero()) {
        const sim::SimTime idle_at = e.last_used + e.idle_timeout;
        if (!t || idle_at < *t) t = idle_at;
    }
    return t;
}

std::uint32_t FlowTable::find(const FlowMatch& match, std::uint16_t priority) const {
    if (fully_specified(match)) {
        const auto it = exact_.find(key_of(match));
        if (it == exact_.end()) return kNoSlot;
        for (std::uint32_t s = it->second; s != kNoSlot; s = slots_[s].next_same_key) {
            if (slots_[s].entry.priority == priority) return s;
        }
        return kNoSlot;
    }
    for (const std::uint32_t s : wildcard_) {
        const FlowEntry& e = slots_[s].entry;
        if (e.priority == priority && e.match == match) return s;
    }
    return kNoSlot;
}

void FlowTable::push_deadline(std::uint32_t slot) {
    const Slot& s = slots_[slot];
    const auto at = expiry_of(s.entry);
    if (!at) return;
    deadlines_.push_back({*at, slot, s.gen});
    std::push_heap(deadlines_.begin(), deadlines_.end(), Later{});
}

void FlowTable::erase(std::uint32_t slot) {
    Slot& s = slots_[slot];
    if (fully_specified(s.entry.match)) {
        const auto it = exact_.find(key_of(s.entry.match));
        if (it->second == slot) {
            if (s.next_same_key == kNoSlot) {
                exact_.erase(it);
            } else {
                it->second = s.next_same_key;
            }
        } else {
            std::uint32_t prev = it->second;
            while (slots_[prev].next_same_key != slot) prev = slots_[prev].next_same_key;
            slots_[prev].next_same_key = s.next_same_key;
        }
        s.next_same_key = kNoSlot;
    } else {
        wildcard_.erase(std::find(wildcard_.begin(), wildcard_.end(), slot));
    }
    s.live = false;
    ++s.gen;
    --live_;
    free_.push_back(slot);
}

template <typename Pred>
std::size_t FlowTable::erase_if(Pred pred) {
    std::size_t removed = 0;
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s].live && pred(slots_[s].entry)) {
            erase(s);
            ++removed;
        }
    }
    return removed;
}

bool FlowTable::install(FlowEntry entry, sim::SimTime now) {
    entry.installed_at = now;
    entry.last_used = now;
    entry.packet_count = 0;
    std::uint32_t slot = find(entry.match, entry.priority);
    const bool replaced = slot != kNoSlot;
    if (replaced) {
        // Same match -> same index position; replace in place. The new
        // deadline may be earlier than the queued one, so requeue.
        Slot& s = slots_[slot];
        s.entry = std::move(entry);
        ++s.gen;
    } else {
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        Slot& s = slots_[slot];
        s.entry = std::move(entry);
        s.seq = next_seq_++;
        s.live = true;
        ++live_;
        if (fully_specified(s.entry.match)) {
            const auto [it, inserted] = exact_.try_emplace(key_of(s.entry.match), slot);
            if (!inserted) {
                s.next_same_key = it->second;
                it->second = slot;
            }
        } else {
            wildcard_.push_back(slot);
        }
    }
    push_deadline(slot);
    return replaced;
}

std::optional<FlowEntry> FlowTable::lookup(const Packet& packet, sim::SimTime now) {
    // After the sweep no entry is expired at `now` (heap deadlines are lower
    // bounds), so the match loops below need no per-entry expiry checks.
    if (!deadlines_.empty() && deadlines_.front().at <= now) expire(now);

    FlowEntry* best = nullptr;
    if (!exact_.empty()) {
        const auto it = exact_.find(key_of(packet));
        if (it != exact_.end()) {
            for (std::uint32_t s = it->second; s != kNoSlot; s = slots_[s].next_same_key) {
                FlowEntry& e = slots_[s].entry;
                if (best == nullptr || e.priority > best->priority) best = &e;
            }
        }
    }
    // Wildcard entries can still outrank an exact hit on priority. On a
    // priority tie the exact entry wins: its specificity is 4, a wildcard's
    // is at most 3. Full ties go to the earliest-installed wildcard.
    for (const std::uint32_t s : wildcard_) {
        FlowEntry& e = slots_[s].entry;
        if (!e.match.matches(packet)) continue;
        if (best == nullptr || e.priority > best->priority ||
            (e.priority == best->priority &&
             e.match.specificity() > best->match.specificity())) {
            best = &e;
        }
    }

    if (best == nullptr) {
        ++misses_;
        return std::nullopt;
    }
    best->last_used = now; // extends idle expiry; its deadline stays a lower bound
    ++best->packet_count;
    ++hits_;
    return *best;
}

const FlowEntry* FlowTable::peek(const Packet& packet, sim::SimTime now) const {
    // Same tie-breaks as lookup(), but expired-yet-unswept entries are
    // skipped rather than swept.
    const FlowEntry* best = nullptr;
    if (!exact_.empty()) {
        const auto it = exact_.find(key_of(packet));
        if (it != exact_.end()) {
            for (std::uint32_t s = it->second; s != kNoSlot; s = slots_[s].next_same_key) {
                const FlowEntry& e = slots_[s].entry;
                if (e.expired(now)) continue;
                if (best == nullptr || e.priority > best->priority) best = &e;
            }
        }
    }
    for (const std::uint32_t s : wildcard_) {
        const FlowEntry& e = slots_[s].entry;
        if (e.expired(now) || !e.match.matches(packet)) continue;
        if (best == nullptr || e.priority > best->priority ||
            (e.priority == best->priority &&
             e.match.specificity() > best->match.specificity())) {
            best = &e;
        }
    }
    return best;
}

std::size_t FlowTable::remove(const FlowMatch& match) {
    std::size_t removed = 0;
    if (fully_specified(match)) {
        // Every slot on the key's chain carries exactly this match.
        const ExactKey key = key_of(match);
        for (auto it = exact_.find(key); it != exact_.end(); it = exact_.find(key)) {
            erase(it->second);
            ++removed;
        }
        return removed;
    }
    for (std::size_t i = 0; i < wildcard_.size();) {
        const std::uint32_t s = wildcard_[i];
        if (slots_[s].entry.match == match) {
            erase(s); // drops wildcard_[i]
            ++removed;
        } else {
            ++i;
        }
    }
    return removed;
}

std::size_t FlowTable::remove_by_cookie(std::uint64_t cookie) {
    return erase_if([cookie](const FlowEntry& e) { return e.cookie == cookie; });
}

std::size_t FlowTable::remove_by_src_ip(Ipv4 src_ip) {
    return erase_if([src_ip](const FlowEntry& e) {
        return e.match.src_ip && *e.match.src_ip == src_ip;
    });
}

std::size_t FlowTable::expire(sim::SimTime now) {
    due_.clear();
    while (!deadlines_.empty() && deadlines_.front().at <= now) {
        std::pop_heap(deadlines_.begin(), deadlines_.end(), Later{});
        const Deadline d = deadlines_.back();
        deadlines_.pop_back();
        const Slot& s = slots_[d.slot];
        if (!s.live || s.gen != d.gen) continue; // overwritten or removed since
        if (s.entry.expired(now)) {
            due_.push_back(d.slot);
        } else {
            push_deadline(d.slot); // used since it was queued
        }
    }
    if (due_.empty()) return 0;

    // Remove everything first, then call back with copies in install order:
    // the callback may install or remove entries itself.
    std::sort(due_.begin(), due_.end(), [this](std::uint32_t a, std::uint32_t b) {
        return slots_[a].seq < slots_[b].seq;
    });
    std::vector<std::pair<FlowEntry, bool>> removed;
    if (removed_cb_) removed.reserve(due_.size());
    for (const std::uint32_t slot : due_) {
        erase(slot);
        if (removed_cb_) {
            FlowEntry& e = slots_[slot].entry;
            const bool idle = !(e.hard_timeout > sim::SimTime::zero() &&
                                now - e.installed_at >= e.hard_timeout);
            removed.emplace_back(std::move(e), idle);
        }
    }
    const std::size_t count = due_.size();
    for (const auto& [entry, idle] : removed) removed_cb_(entry, idle);
    return count;
}

std::vector<FlowEntry> FlowTable::entries() const {
    std::vector<const Slot*> live;
    live.reserve(live_);
    for (const Slot& s : slots_) {
        if (s.live) live.push_back(&s);
    }
    std::sort(live.begin(), live.end(),
              [](const Slot* a, const Slot* b) { return a->seq < b->seq; });
    std::vector<FlowEntry> out;
    out.reserve(live.size());
    for (const Slot* s : live) out.push_back(s->entry);
    return out;
}

void FlowTable::clear() {
    slots_.clear();
    free_.clear();
    exact_.clear();
    wildcard_.clear();
    deadlines_.clear();
    live_ = 0;
}

} // namespace tedge::net
