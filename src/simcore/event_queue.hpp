// Slab-allocated event queue for the discrete-event kernel, ordered by a
// hierarchical timing wheel (timer_wheel.hpp): O(1) push, amortized O(1)
// pop, flat cost out to millions of pending timers.
//
// Events are ordered by (timestamp, insertion sequence) which makes execution
// order fully deterministic: two events scheduled for the same instant run in
// the order they were scheduled.
//
// Storage is a slab of reusable slots referenced by the wheel. An
// EventHandle is a (slot, generation) pair: cancellation is O(1) — a
// generation-checked flag write, no allocation, no shared_ptr traffic — and a
// handle held across slot reuse can never cancel the wrong event because the
// generation is bumped when the slot is recycled. Cancelled events stay in
// the wheel as tombstones and are discarded lazily when they surface.
//
// Events may be marked `daemon` (housekeeping periodics such as cache
// sweeps): they execute normally while user events are pending, but
// Simulation::run() terminates once only daemon events remain.
//
// Lifetime: an EventHandle holds a raw pointer to its queue, so handles must
// not outlive the EventQueue (in practice the Simulation, which all
// components already outlive by construction order).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/time.hpp"
#include "simcore/timer_wheel.hpp"
#include "simcore/unique_function.hpp"

namespace tedge::sim {

class EventQueue;

/// Ordering structure behind an EventQueue.
enum class QueueBackend : std::uint8_t {
    /// Retired (the former 4-ary slab heap). Never constructed; the value
    /// survives only because the perfbench harness names it when printing
    /// the default backend.
    kHeap,
    kWheel,  ///< hierarchical timing wheel: the only ordering structure
};

/// Handle to a scheduled event; allows cancellation before it fires.
class EventHandle {
public:
    EventHandle() = default;

    /// Cancel the event. Safe to call multiple times, on an empty handle, or
    /// after the event has fired (the generation check makes it a no-op).
    void cancel();

    /// True if the handle refers to an event that has neither fired nor been
    /// cancelled yet.
    [[nodiscard]] bool pending() const;

private:
    friend class EventQueue;
    EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
        : queue_(queue), slot_(slot), generation_(generation) {}

    EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
};

/// Deterministic timestamped callback queue over a reusable slot slab.
class EventQueue {
public:
    using Callback = UniqueFunction<void()>;

    /// The ordering structure every queue runs on: always kWheel.
    [[nodiscard]] static constexpr QueueBackend default_backend() {
        return QueueBackend::kWheel;
    }

    /// Schedule `cb` to fire at absolute time `at`. Daemon events run like
    /// any other but do not keep Simulation::run() alive on their own. `at`
    /// must be non-negative and not precede the most recently popped
    /// timestamp (Simulation guarantees both).
    EventHandle push(SimTime at, Callback cb, bool daemon = false);

    /// True when no live events remain (cancelled tombstones do not count).
    [[nodiscard]] bool empty() const { return live_ == 0; }

    /// Number of live (scheduled, not cancelled) events.
    [[nodiscard]] std::size_t size() const { return live_; }

    /// True while at least one live non-daemon event remains.
    [[nodiscard]] bool has_user_events() const { return live_user_ > 0; }

    /// Timestamp of the earliest live event. Requires !empty(). May lazily
    /// discard cancelled tombstones (see the Store member note).
    [[nodiscard]] SimTime next_time() const;

    /// True when the earliest live event is a daemon. Requires !empty().
    /// Non-destructive (the wheel is not advanced), so the caller may still
    /// push events earlier than the reported minimum — the sharded kernel
    /// peeks this to fence daemon housekeeping without disturbing later
    /// message insertion.
    [[nodiscard]] bool next_is_daemon() const;

    /// Remove and return the earliest live event. Requires !empty().
    std::pair<SimTime, Callback> pop();

    /// Drop all events.
    void clear();

    /// Pre-size the slot slab for `events` concurrently pending events,
    /// avoiding vector-growth stalls mid-run. The wheel needs no pre-sizing:
    /// its buckets reach steady-state capacity within one rotation and are
    /// recycled thereafter.
    void reserve(std::size_t events);

    /// Total number of events ever scheduled (for diagnostics/determinism checks).
    [[nodiscard]] std::uint64_t total_scheduled() const { return seq_; }

    /// Cascade accounting of the timing wheel. The numbers are deterministic
    /// at a fixed seed, which is what lets bench gates assert the
    /// amortized-cascade bound without timing anything.
    [[nodiscard]] const TimerWheel::CascadeStats& wheel_cascade_stats() const {
        return store_.wheel.cascade_stats();
    }

private:
    friend class EventHandle;

    static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

    struct Slot {
        Callback cb;
        std::uint64_t seq = 0;  ///< insertion sequence; ordering tie-break key
        std::uint32_t generation = 0;
        std::uint32_t next_free = kInvalid;
        bool daemon = false;
        bool cancelled = false;
        bool in_use = false;
    };
    // Event storage. Const accessors (next_time, next_is_daemon) lazily
    // discard cancelled tombstones as they surface; that housekeeping changes
    // no observable state (live counts, next live event), so the store is
    // mutable and the accessors stay honest const — no const_cast.
    struct Store {
        std::vector<Slot> slots;
        TimerWheel wheel;
        std::uint32_t free_head = kInvalid;
    };

    void cancel_slot(std::uint32_t slot, std::uint32_t generation);
    [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t generation) const;

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot) const;

    // Drop filter handed to the wheel: true for cancelled entries, releasing
    // their slot as the wheel removes them.
    [[nodiscard]] auto dead_filter() const {
        return [this](std::uint32_t slot) {
            if (!store_.slots[slot].cancelled) return false;
            release_slot(slot);
            return true;
        };
    }

    mutable Store store_;
    std::uint64_t seq_ = 0;
    std::size_t live_ = 0;
    std::size_t live_user_ = 0;
};

// ---------------------------------------------------------------------------
// Hot-path definitions, kept in the header so the simulation loop inlines
// them: push/pop run once per scheduled event, millions of times per
// experiment replay.

inline std::uint32_t EventQueue::acquire_slot() {
    if (store_.free_head != kInvalid) {
        const std::uint32_t slot = store_.free_head;
        store_.free_head = store_.slots[slot].next_free;
        return slot;
    }
    store_.slots.emplace_back();
    return static_cast<std::uint32_t>(store_.slots.size() - 1);
}

inline void EventQueue::release_slot(std::uint32_t slot) const {
    Slot& s = store_.slots[slot];
    s.cb = nullptr;
    s.in_use = false;
    s.cancelled = false;
    // Bump the generation so stale handles to the old occupant can neither
    // cancel nor observe the slot's next tenant.
    ++s.generation;
    s.next_free = store_.free_head;
    store_.free_head = slot;
}

inline EventHandle EventQueue::push(SimTime at, Callback cb, bool daemon) {
    if (at.ns() < 0 || static_cast<std::uint64_t>(at.ns()) < store_.wheel.current()) {
        throw std::invalid_argument(
            "EventQueue: timestamp negative or before the last popped event");
    }
    const std::uint32_t slot = acquire_slot();
    Slot& s = store_.slots[slot];
    s.cb = std::move(cb);
    s.seq = seq_++;
    s.daemon = daemon;
    s.cancelled = false;
    s.in_use = true;
    store_.wheel.push(static_cast<std::uint64_t>(at.ns()), s.seq, slot);
    ++live_;
    if (!daemon) ++live_user_;
    return EventHandle{this, slot, s.generation};
}

inline std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
    TimerWheel::Entry entry{};
    if (!store_.wheel.pop_min(dead_filter(), entry)) {
        throw std::logic_error("EventQueue::pop on empty queue");
    }
    Slot& s = store_.slots[entry.slot];
    std::pair<SimTime, Callback> out{SimTime{static_cast<std::int64_t>(entry.at)},
                                     std::move(s.cb)};
    --live_;
    if (!s.daemon) --live_user_;
    release_slot(entry.slot);
    return out;
}

inline bool EventQueue::next_is_daemon() const {
    TimerWheel::Entry entry{};
    if (!store_.wheel.min_entry(dead_filter(), entry)) {
        throw std::logic_error("EventQueue::next_is_daemon on empty queue");
    }
    return store_.slots[entry.slot].daemon;
}

inline SimTime EventQueue::next_time() const {
    std::uint64_t at = 0;
    if (!store_.wheel.min_time(dead_filter(), at)) {
        throw std::logic_error("EventQueue::next_time on empty queue");
    }
    return SimTime{static_cast<std::int64_t>(at)};
}

} // namespace tedge::sim
