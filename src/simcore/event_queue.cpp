// Cold-path members of EventQueue. The per-event hot path (push/pop) lives
// inline in the header; cancellation, handle queries, reserve() and clear()
// are rare enough that an out-of-line definition keeps rebuilds cheap.
#include "simcore/event_queue.hpp"

namespace tedge::sim {

void EventHandle::cancel() {
    if (queue_) queue_->cancel_slot(slot_, generation_);
}

bool EventHandle::pending() const {
    return queue_ && queue_->slot_pending(slot_, generation_);
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
    if (slot >= store_.slots.size()) return;
    Slot& s = store_.slots[slot];
    if (!s.in_use || s.cancelled || s.generation != generation) return;
    s.cancelled = true;
    s.cb = nullptr; // release captures eagerly; the wheel entry is a tombstone
    --live_;
    if (!s.daemon) --live_user_;
    // The cancelled event may have been the cached wheel minimum.
    store_.wheel.note_cancelled();
}

bool EventQueue::slot_pending(std::uint32_t slot, std::uint32_t generation) const {
    if (slot >= store_.slots.size()) return false;
    const Slot& s = store_.slots[slot];
    return s.in_use && !s.cancelled && s.generation == generation;
}

void EventQueue::clear() {
    store_.wheel.consume_all([this](const TimerWheel::Entry& e) {
        Slot& s = store_.slots[e.slot];
        if (s.in_use && !s.cancelled) {
            --live_;
            if (!s.daemon) --live_user_;
        }
        release_slot(e.slot);
    });
}

void EventQueue::reserve(std::size_t events) { store_.slots.reserve(events); }

} // namespace tedge::sim
