// Hierarchical timing wheel (Varghese & Lauck) over absolute nanosecond
// timestamps: the ordering structure behind EventQueue, O(1) push and
// amortized O(1) pop.
//
// Geometry. 11 levels x 64 buckets cover every bit of a 64-bit timestamp
// (6 bits per level). An entry at absolute time `at` is filed relative to the
// wheel's reference instant `cur_` (the timestamp of the most recently popped
// entry): with d = at ^ cur_, the entry lands on the level of d's highest set
// bit, in the bucket indexed by `at`'s 6-bit field at that level. Because
// buckets partition *aligned* blocks of absolute time, two invariants follow:
//
//   1. every entry on level L is earlier than every entry on any level > L
//      (level-L entries share cur_'s 2^(6(L+1))-aligned block; higher-level
//      entries lie in a later block), and
//   2. within a level, ascending bucket index is ascending time (all higher
//      bits are shared with cur_).
//
// So the globally earliest entry always sits in the lowest-indexed occupied
// bucket of the lowest occupied level -- found in O(1) with one countr_zero
// per level over the per-level occupancy bitmasks. A level-0 bucket holds
// exactly one timestamp; higher-level buckets hold a timestamp range.
//
// Determinism. Draining buckets in bulk must not disturb the kernel's
// (timestamp, insertion-seq) order. When the earliest bucket is staged, the
// entries at its minimum timestamp move into `ready_` in bucket order; the
// rest re-file strictly below their old level (bucket-mates share all bits
// at and above the old level's field with the new cur_), so each entry
// cascades at most kLevels times over its lifetime -- amortized O(1).
// Bucket order needs no sort because of one invariant: *same-instant entries
// in a bucket are seq-ascending*. All live entries for an instant T sit in
// one place, the bucket that T and cur_ select (or `ready_` once cur_ == T),
// because staging re-files every bucket-mate against the new cur_. They
// reach a lower bucket only together, re-filed in their old bucket's order,
// and every later entry for T arrives by push, whose seq is globally
// maximal, so it appends behind them (into `ready_` directly when T ==
// cur_). Purges and the staging compaction drop entries without reordering
// the rest. tests/timer_wheel_test.cpp drives T through every level, with
// cancellations, against an ordered-set model.
//
// Advancing `cur_` happens only in pop_min(): min_time() computes the next
// timestamp non-destructively (cached between calls) because callers such as
// Simulation::run_until may consult it, stop *before* that instant, and then
// legally push new entries earlier than the pending minimum.
//
// Cancellation is the caller's concern: the wheel stores (at, seq, slot)
// records and lazily purges entries for which the caller-supplied drop filter
// returns true (EventQueue releases the slot inside the filter).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace tedge::sim {

/// Multi-level timing wheel with deterministic (timestamp, seq) pop order.
class TimerWheel {
public:
    struct Entry {
        std::uint64_t at;    ///< absolute timestamp, nanoseconds (non-negative)
        std::uint64_t seq;   ///< insertion sequence; same-instant tie-break
        std::uint32_t slot;  ///< owner's slab slot id
    };

    /// Deterministic cascade accounting (same numbers at a fixed seed on any
    /// host): how much bulk work staging has done. `refiled` divided by the
    /// number of pushes is the amortized cascade cost per entry; the wheel
    /// geometry bounds it by kLevels, and a practical run with a horizon
    /// under 2^40 ns stays below 7.
    struct CascadeStats {
        std::uint64_t stages = 0;          ///< buckets staged (instant groups)
        std::uint64_t refiled = 0;         ///< entries re-filed to lower levels
        std::uint64_t max_stage_burst = 0; ///< largest single staged bucket
    };

    /// File an entry. Requires at >= current() -- the simulation clock never
    /// schedules into the past relative to the last popped event.
    void push(std::uint64_t at, std::uint64_t seq, std::uint32_t slot);

    /// Timestamp of the earliest entry surviving `drop`, without advancing
    /// the wheel. Returns false when no live entry remains. The result is
    /// cached until the next pop/cancel.
    template <typename Drop>
    [[nodiscard]] bool min_time(Drop&& drop, std::uint64_t& at_out);

    /// The earliest entry surviving `drop` in (at, seq) order, without
    /// advancing the wheel (same non-destructive contract as min_time, so
    /// callers may still push entries earlier than the reported minimum
    /// afterwards). Returns false when no live entry remains.
    template <typename Drop>
    [[nodiscard]] bool min_entry(Drop&& drop, Entry& out);

    /// Remove the earliest entry surviving `drop` in (at, seq) order.
    /// Advances current() to the popped timestamp. Returns false when empty.
    template <typename Drop>
    [[nodiscard]] bool pop_min(Drop&& drop, Entry& out);

    /// Visit every remaining entry (live and dropped alike, unspecified
    /// order) and leave the wheel empty with current() reset to zero.
    template <typename Visit>
    void consume_all(Visit&& visit);

    /// Invalidate the cached minimum (call when an entry is cancelled; the
    /// tombstone itself is purged lazily by the drop filter). The pending
    /// count lets the purge scans skip the per-entry drop filter -- and its
    /// slab load -- entirely while no cancellation is outstanding.
    void note_cancelled() {
        min_valid_ = false;
        ++cancelled_;
    }

    /// Reference instant: the timestamp of the most recently popped entry.
    [[nodiscard]] std::uint64_t current() const { return cur_; }

    /// Entries on the wheel, including not-yet-purged dropped ones.
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// Cumulative staging/cascade work since construction.
    [[nodiscard]] const CascadeStats& cascade_stats() const { return cascade_; }

private:
    static constexpr int kLevelBits = 6;
    static constexpr std::size_t kBuckets = std::size_t{1} << kLevelBits;
    static constexpr int kLevels = (64 + kLevelBits - 1) / kLevelBits;  // 11

    using Bucket = std::vector<Entry>;

    static int level_of(std::uint64_t distance) {
        return (63 - std::countl_zero(distance)) / kLevelBits;
    }
    static std::size_t index_of(std::uint64_t at, int level) {
        return (at >> (level * kLevelBits)) & (kBuckets - 1);
    }

    void file(const Entry& e);
    void clear_bucket_bit(int level, std::size_t idx);
    // Advance cur_ to the minimum of bucket (level, idx) and stage that
    // instant's entries into ready_ (in bucket order, which is seq order);
    // re-file the rest.
    void stage(int level, std::size_t idx);

    template <typename Drop>
    void purge_ready(Drop& drop);
    template <typename Drop>
    void purge_bucket(Bucket& bucket, Drop& drop);
    // Locate the earliest non-empty bucket (purging as it scans) and stage
    // it. Returns false when nothing live remains.
    template <typename Drop>
    bool advance(Drop& drop);

    std::array<std::array<Bucket, kBuckets>, kLevels> buckets_{};
    std::array<std::uint64_t, kLevels> occupied_{};  ///< bit b: bucket b non-empty
    std::uint16_t level_mask_ = 0;   ///< bit L: occupied_[L] != 0
    std::vector<Entry> ready_;       ///< current instant's group, seq-ascending
    std::size_t ready_head_ = 0;     ///< drained prefix of ready_
    std::uint64_t cur_ = 0;
    std::uint64_t min_cache_ = 0;
    bool min_valid_ = false;
    std::size_t size_ = 0;
    std::size_t cancelled_ = 0;      ///< tombstones not yet purged
    CascadeStats cascade_;
};

// ---------------------------------------------------------------------------
// Hot paths, inline: push and the purge/scan loops run once per event.

inline void TimerWheel::file(const Entry& e) {
    const int level = level_of(e.at ^ cur_);
    const std::size_t idx = index_of(e.at, level);
    buckets_[level][idx].push_back(e);
    occupied_[level] |= std::uint64_t{1} << idx;
    level_mask_ |= static_cast<std::uint16_t>(1U << level);
}

inline void TimerWheel::clear_bucket_bit(int level, std::size_t idx) {
    occupied_[level] &= ~(std::uint64_t{1} << idx);
    if (occupied_[level] == 0) {
        level_mask_ &= static_cast<std::uint16_t>(~(1U << level));
    }
}

inline void TimerWheel::push(std::uint64_t at, std::uint64_t seq, std::uint32_t slot) {
    const Entry e{at, seq, slot};
    if (at == cur_) {
        // Same-instant push while that instant's group drains: seq is
        // globally maximal, so appending keeps ready_ sorted.
        ready_.push_back(e);
    } else {
        file(e);
        if (min_valid_ && at < min_cache_) min_cache_ = at;
    }
    ++size_;
}

template <typename Drop>
void TimerWheel::purge_ready(Drop& drop) {
    if (cancelled_ != 0) {
        while (ready_head_ < ready_.size() && drop(ready_[ready_head_].slot)) {
            ++ready_head_;
            --size_;
            --cancelled_;
        }
    }
    if (ready_head_ != 0 && ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
    }
}

template <typename Drop>
void TimerWheel::purge_bucket(Bucket& bucket, Drop& drop) {
    if (cancelled_ == 0) return;  // no tombstones anywhere: skip the scan
    std::size_t w = 0;
    for (const Entry& e : bucket) {
        if (drop(e.slot)) {
            --size_;
            --cancelled_;
        } else {
            bucket[w++] = e;
        }
    }
    bucket.resize(w);
}

template <typename Drop>
bool TimerWheel::advance(Drop& drop) {
    while (level_mask_ != 0) {
        const int level = std::countr_zero(level_mask_);
        while (occupied_[level] != 0) {
            const auto idx =
                static_cast<std::size_t>(std::countr_zero(occupied_[level]));
            Bucket& bucket = buckets_[level][idx];
            purge_bucket(bucket, drop);
            if (bucket.empty()) {
                clear_bucket_bit(level, idx);
                continue;  // next-lowest bucket on this level, then up
            }
            stage(level, idx);
            return true;
        }
    }
    return false;
}

template <typename Drop>
bool TimerWheel::min_time(Drop&& drop, std::uint64_t& at_out) {
    purge_ready(drop);
    if (ready_head_ < ready_.size()) {
        at_out = ready_[ready_head_].at;
        return true;
    }
    if (min_valid_) {
        at_out = min_cache_;
        return true;
    }
    // Scan for the first non-empty bucket; its minimum is the global one.
    // Cost is O(bucket) once per instant group (cached between pops).
    while (level_mask_ != 0) {
        const int level = std::countr_zero(level_mask_);
        while (occupied_[level] != 0) {
            const auto idx =
                static_cast<std::size_t>(std::countr_zero(occupied_[level]));
            Bucket& bucket = buckets_[level][idx];
            purge_bucket(bucket, drop);
            if (bucket.empty()) {
                clear_bucket_bit(level, idx);
                continue;
            }
            std::uint64_t best = bucket.front().at;
            for (const Entry& e : bucket) best = std::min(best, e.at);
            min_cache_ = best;
            min_valid_ = true;
            at_out = best;
            return true;
        }
    }
    return false;
}

template <typename Drop>
bool TimerWheel::min_entry(Drop&& drop, Entry& out) {
    purge_ready(drop);
    if (ready_head_ < ready_.size()) {
        out = ready_[ready_head_];
        return true;
    }
    // Same first-non-empty-bucket scan as min_time, but selecting the full
    // (at, seq)-minimal entry. Entries sharing a timestamp are always filed
    // in the same bucket (identical distance from cur_), so the winner of
    // this bucket is the global next pop. Deliberately not cached: the peek
    // runs only on the fence-blocked path, never per event.
    while (level_mask_ != 0) {
        const int level = std::countr_zero(level_mask_);
        while (occupied_[level] != 0) {
            const auto idx =
                static_cast<std::size_t>(std::countr_zero(occupied_[level]));
            Bucket& bucket = buckets_[level][idx];
            purge_bucket(bucket, drop);
            if (bucket.empty()) {
                clear_bucket_bit(level, idx);
                continue;
            }
            Entry best = bucket.front();
            for (const Entry& e : bucket) {
                if (e.at < best.at || (e.at == best.at && e.seq < best.seq)) {
                    best = e;
                }
            }
            min_cache_ = best.at;
            min_valid_ = true;
            out = best;
            return true;
        }
    }
    return false;
}

template <typename Drop>
bool TimerWheel::pop_min(Drop&& drop, Entry& out) {
    purge_ready(drop);
    if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
        if (!advance(drop)) return false;
    }
    out = ready_[ready_head_++];
    --size_;
    min_valid_ = false;
    if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
    }
    return true;
}

template <typename Visit>
void TimerWheel::consume_all(Visit&& visit) {
    for (std::size_t i = ready_head_; i < ready_.size(); ++i) visit(ready_[i]);
    ready_.clear();
    ready_head_ = 0;
    for (int level = 0; level < kLevels; ++level) {
        std::uint64_t occ = occupied_[level];
        while (occ != 0) {
            const auto idx = static_cast<std::size_t>(std::countr_zero(occ));
            occ &= occ - 1;
            for (const Entry& e : buckets_[level][idx]) visit(e);
            buckets_[level][idx].clear();
        }
        occupied_[level] = 0;
    }
    level_mask_ = 0;
    size_ = 0;
    cancelled_ = 0;  // tombstones were consumed along with everything else
    min_valid_ = false;
    // The wheel is empty, so the reference instant can rewind: future pushes
    // may use any non-negative timestamp again.
    cur_ = 0;
}

} // namespace tedge::sim
