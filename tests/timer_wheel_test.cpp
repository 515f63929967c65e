// Event queue: determinism against an independent ordered-set model,
// timing-wheel edge cases (cascading, deadline peeks, rewind-after-clear),
// and the EventQueue::clear() cold path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace tedge;
using sim::EventHandle;
using sim::EventQueue;
using sim::SimTime;

// ------------------------------------------------------------ differential

/// One fired event as observed by the caller: (timestamp, id, daemon flag).
using PopRecord = std::tuple<std::int64_t, int, bool>;

/// The reference the kernel is checked against: an ordered set keyed by the
/// queue's contract, (timestamp, insertion seq), with cancellation as erase.
/// It shares no slab, handle or wheel code with EventQueue. Both test
/// queues name a pushed event by its push index.
class ReferenceQueue {
public:
    void push(std::int64_t at, int id, bool daemon) {
        keys_.emplace_back(at, seq_++, id, daemon);
        pending_.insert(keys_.back());
    }
    void cancel(std::size_t index) { pending_.erase(keys_[index]); }
    [[nodiscard]] bool empty() const { return pending_.empty(); }
    [[nodiscard]] std::int64_t next_time() const {
        return std::get<0>(*pending_.begin());
    }
    PopRecord pop() {
        const auto [at, seq, id, daemon] = *pending_.begin();
        pending_.erase(pending_.begin());
        return {at, id, daemon};
    }

private:
    using Key = std::tuple<std::int64_t, std::uint64_t, int, bool>;
    std::set<Key> pending_;
    std::vector<Key> keys_;  ///< by push index; erasing a popped key is a no-op
    std::uint64_t seq_ = 0;
};

/// EventQueue behind the same interface; each callback reports its own
/// identity, so a pop is checked against what was actually scheduled.
class KernelQueue {
public:
    void push(std::int64_t at, int id, bool daemon) {
        handles_.push_back(queue_.push(
            SimTime{at}, [this, at, id, daemon] { fired_ = {at, id, daemon}; },
            daemon));
    }
    void cancel(std::size_t index) { handles_[index].cancel(); }
    [[nodiscard]] bool empty() const { return queue_.empty(); }
    [[nodiscard]] std::uint64_t refiled() const {
        return queue_.wheel_cascade_stats().refiled;
    }
    [[nodiscard]] std::int64_t next_time() const { return queue_.next_time().ns(); }
    PopRecord pop() {
        auto [at, cb] = queue_.pop();
        cb();
        EXPECT_EQ(at.ns(), std::get<0>(fired_));
        return fired_;
    }

private:
    EventQueue queue_;
    std::vector<EventHandle> handles_;
    PopRecord fired_{};
};

/// Drive a queue through a seeded random schedule/cancel/pop workload and
/// record the exact pop sequence. Delays mix five magnitudes -- same-instant
/// collisions up to ~17 simulated minutes -- so wheel entries exercise every
/// level and the cascade path repeatedly.
template <typename Queue>
std::vector<PopRecord> run_random_workload(std::uint32_t seed) {
    Queue queue;
    std::mt19937 rng(seed);
    std::vector<PopRecord> popped;
    std::size_t pushed = 0;
    std::int64_t now = 0;
    int next_id = 0;

    const auto random_delay = [&]() -> std::int64_t {
        switch (rng() % 5) {
            case 0: return 0; // same-instant pile-up
            case 1: return static_cast<std::int64_t>(rng() % 64);
            case 2: return static_cast<std::int64_t>(rng() % 4096) * 250;
            case 3: return static_cast<std::int64_t>(rng() % 1024) * 1'000'000;
            default:
                return static_cast<std::int64_t>(rng() % 1024) * 1'000'000'000;
        }
    };
    const auto pop_one = [&] {
        popped.push_back(queue.pop());
        now = std::get<0>(popped.back());
    };

    for (int round = 0; round < 300; ++round) {
        const std::size_t pushes = rng() % 8;
        for (std::size_t i = 0; i < pushes; ++i) {
            const int id = next_id++;
            const bool daemon = rng() % 4 == 0;
            const std::int64_t at = now + random_delay();
            queue.push(at, id, daemon);
            ++pushed;
        }
        const std::size_t cancels = rng() % 3;
        for (std::size_t i = 0; i < cancels && pushed > 0; ++i) {
            queue.cancel(rng() % pushed);
        }
        if (round % 7 == 0 && !queue.empty()) {
            // Exercise the non-destructive minimum (the wheel's min cache)
            // interleaved with later smaller-timestamp pushes.
            popped.emplace_back(queue.next_time(), -1, false);
        }
        std::size_t pops = rng() % 6;
        while (pops-- > 0 && !queue.empty()) pop_one();
    }
    while (!queue.empty()) pop_one();
    return popped;
}

TEST(TimerWheelDifferential, PopSequenceMatchesReferenceModelExactly) {
    for (const std::uint32_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        const auto reference = run_random_workload<ReferenceQueue>(seed);
        const auto kernel = run_random_workload<KernelQueue>(seed);
        ASSERT_GT(reference.size(), 500u) << "seed " << seed;
        ASSERT_EQ(reference.size(), kernel.size()) << "seed " << seed;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            ASSERT_EQ(reference[i], kernel[i]) << "seed " << seed << " index " << i;
        }
    }
}

TEST(TimerWheelDifferential, SimulationReferenceScheduleMatches) {
    // Periodics, nested schedules and cancellations through the Simulation
    // loop. Same-instant events run in scheduling order: the periodic's 1 s
    // firing was re-armed at 750 ms, after event 2 was scheduled at t=0 but
    // before event 2 scheduled event 4. run() returns after event 6 because
    // only the daemon periodic remains.
    sim::Simulation simulation;
    std::vector<std::pair<std::int64_t, int>> order;
    const auto mark = [&](int id) { order.emplace_back(simulation.now().ns(), id); };
    auto periodic = simulation.schedule_periodic(
        sim::milliseconds(250), [&] { mark(1); }, /*daemon=*/true);
    simulation.schedule(sim::seconds(1), [&] {
        mark(2);
        simulation.schedule(sim::milliseconds(1), [&] { mark(3); });
        simulation.schedule(SimTime::zero(), [&] { mark(4); });
    });
    auto doomed = simulation.schedule(sim::seconds(2), [&] { mark(99); });
    simulation.schedule(sim::milliseconds(1500), [&doomed, &mark] {
        mark(5);
        doomed.cancel();
    });
    simulation.schedule(sim::seconds(3), [&] { mark(6); });
    const auto executed = simulation.run();
    periodic.cancel();

    const auto ms = [](std::int64_t v) { return sim::milliseconds(v).ns(); };
    const std::vector<std::pair<std::int64_t, int>> expected = {
        {ms(250), 1},  {ms(500), 1},  {ms(750), 1},  {ms(1000), 2},
        {ms(1000), 1}, {ms(1000), 4}, {ms(1001), 3}, {ms(1250), 1},
        {ms(1500), 5}, {ms(1500), 1}, {ms(1750), 1}, {ms(2000), 1},
        {ms(2250), 1}, {ms(2500), 1}, {ms(2750), 1}, {ms(3000), 6},
    };
    EXPECT_EQ(order, expected);
    EXPECT_EQ(executed, expected.size());
}

constexpr std::int64_t kSameInstant = (std::int64_t{1} << 36) - 2;

/// Push one instant T from a reference instant that walks up to it one wheel
/// level at a time, so T's entries are filed at every level from 5 down to
/// 0 and re-filed together on each step; cancellations hit entries filed at
/// different levels, and a final push at T lands while T's group drains.
/// Returns the pop sequence.
template <typename Queue>
std::vector<PopRecord> run_same_instant_cascade(Queue& queue) {
    // Bits 1..35 set: for k >= 1, T - 2^k differs from T in bit k alone,
    // which is on wheel level k / 6, so each step below moves T down exactly
    // one level. T + 1 differs from T only in bit 0, so it shares T's bucket
    // on every level above 0.
    constexpr std::int64_t kT = kSameInstant;
    std::vector<PopRecord> popped;
    int next_id = 0;
    std::size_t pushed = 0;
    const auto push = [&](std::int64_t at) {
        queue.push(at, next_id, next_id % 3 == 0);
        ++next_id;
        ++pushed;
    };

    push(kT);
    push(kT);
    push(kT + 1);  // a bucket-mate at a different instant
    queue.cancel(1);
    int step = 0;
    for (const int bit : {33, 27, 21, 15, 9, 3, 0}) {
        // Advance the reference instant to T - 2^bit: the only entry below
        // it is the filler, so one pop lands exactly there and stages (and
        // from bit 27 on, cascades) the bucket T shares with it.
        push(kT - (std::int64_t{1} << bit));
        popped.push_back(queue.pop());
        push(kT);
        push(kT);
        push(kT + 1);
        if (step++ % 2 == 0) queue.cancel(pushed - 2);  // the second T entry
    }
    bool pushed_while_draining = false;
    while (!queue.empty()) {
        popped.push_back(queue.pop());
        if (!pushed_while_draining && std::get<0>(popped.back()) == kT) {
            push(kT);  // same instant as the group now draining
            pushed_while_draining = true;
        }
    }
    return popped;
}

// Same-instant entries filed at different wheel levels must still pop in
// push order. Staging keeps each bucket's order and never sorts, which is
// sound because a bucket's same-instant entries are already seq-ascending:
// this drives exactly the shapes that could break that (cascades of mixed
// old and new entries, cancellations, pushes into the draining group).
TEST(TimerWheelDifferential, SameInstantEntriesFromEveryLevelPopInPushOrder) {
    ReferenceQueue reference_queue;
    KernelQueue kernel_queue;
    const auto reference = run_same_instant_cascade(reference_queue);
    const auto kernel = run_same_instant_cascade(kernel_queue);
    EXPECT_EQ(kernel, reference);
    // 2 + 7 * 2 + 1 pushes at T, 5 of them cancelled: 12 pops at T.
    EXPECT_EQ(std::count_if(kernel.begin(), kernel.end(),
                            [](const PopRecord& r) {
                                return std::get<0>(r) == kSameInstant;
                            }),
              12);
    // T's bucket cascaded on each step from level 5 down to level 0, at
    // least three live entries each time.
    EXPECT_GE(kernel_queue.refiled(), 5u * 3u);
}

// --------------------------------------------------------- wheel specifics

TEST(TimerWheel, SameInstantFifoAcrossCascadeLevels) {
    // First event files far from the reference instant (high wheel level);
    // after the wheel advances, a second event for the same instant files
    // near it (low level). Seq order must still win.
    EventQueue queue;
    std::vector<int> order;
    constexpr std::int64_t kFar = 3'000'000'000; // 3 s: level > 0 from t=0
    queue.push(SimTime{kFar}, [&] { order.push_back(1); });
    queue.push(SimTime{1}, [&] { order.push_back(0); });
    (void)queue.pop().second(); // fires t=1, advances the reference instant
    queue.push(SimTime{kFar}, [&] { order.push_back(2); });
    while (!queue.empty()) queue.pop().second();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TimerWheel, PushEarlierThanPeekedMinimum) {
    // run_until consults next_time(), stops short of it, and later events may
    // be pushed *below* the pending minimum. The wheel must not have
    // advanced its reference instant during the peek.
    sim::Simulation simulation;
    std::vector<int> order;
    simulation.schedule_at(sim::seconds(10), [&] { order.push_back(1); });
    simulation.run_until(sim::seconds(1)); // peeks 10s, stops at 1s
    EXPECT_EQ(simulation.now(), sim::seconds(1));
    simulation.schedule_at(sim::seconds(2), [&] { order.push_back(0); });
    simulation.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(simulation.now(), sim::seconds(10));
}

TEST(TimerWheel, CancelledMinimumIsSkippedByNextTime) {
    EventQueue queue;
    auto first = queue.push(sim::seconds(1), [] {});
    queue.push(sim::seconds(2), [] {});
    EXPECT_EQ(queue.next_time(), sim::seconds(1));
    first.cancel();
    EXPECT_EQ(queue.next_time(), sim::seconds(2));
    EXPECT_EQ(queue.pop().first, sim::seconds(2));
}

TEST(TimerWheel, RejectsTimestampBeforeLastPop) {
    EventQueue queue;
    queue.push(sim::seconds(5), [] {});
    (void)queue.pop();
    EXPECT_THROW(queue.push(sim::seconds(4), [] {}), std::invalid_argument);
    EXPECT_THROW(queue.push(SimTime{-1}, [] {}), std::invalid_argument);
    queue.push(sim::seconds(5), [] {}); // same instant is legal
    EXPECT_EQ(queue.size(), 1u);
}

TEST(TimerWheel, DistantTimersAcrossManyLevels) {
    // Timestamps spanning ns..~11.5 days exercise most levels of the wheel.
    EventQueue queue;
    std::vector<std::int64_t> ats;
    std::int64_t at = 1;
    while (at < 1'000'000'000'000'000) { // 10^15 ns
        ats.push_back(at);
        at *= 10;
    }
    std::mt19937 rng(7);
    auto shuffled = ats;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const auto t : shuffled) {
        queue.push(SimTime{t}, [] {});
    }
    std::vector<std::int64_t> popped;
    while (!queue.empty()) popped.push_back(queue.pop().first.ns());
    EXPECT_EQ(popped, ats);
}

// ------------------------------------------------------------------ clear()

TEST(EventQueueClearTest, DropsLiveDaemonAndCancelledMixes) {
    EventQueue queue;
    int fired = 0;
    auto user = queue.push(sim::seconds(1), [&] { ++fired; });
    auto daemon = queue.push(sim::seconds(2), [&] { ++fired; }, /*daemon=*/true);
    auto cancelled = queue.push(sim::seconds(3), [&] { ++fired; });
    cancelled.cancel();
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_TRUE(queue.has_user_events());

    queue.clear();

    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_FALSE(queue.has_user_events());
    EXPECT_EQ(fired, 0);
    EXPECT_THROW(static_cast<void>(queue.next_time()), std::logic_error);
    EXPECT_THROW(queue.pop(), std::logic_error);
    // Counting is unaffected: total_scheduled is a lifetime counter.
    EXPECT_EQ(queue.total_scheduled(), 3u);
    (void)user;
    (void)daemon;
}

TEST(EventQueueClearTest, HandlesToClearedEventsAreInert) {
    EventQueue queue;
    auto live = queue.push(sim::seconds(1), [] {});
    auto daemon = queue.push(sim::seconds(2), [] {}, /*daemon=*/true);
    EXPECT_TRUE(live.pending());
    EXPECT_TRUE(daemon.pending());

    queue.clear();

    EXPECT_FALSE(live.pending());
    EXPECT_FALSE(daemon.pending());
    // cancel() after clear must be a no-op -- in particular it must not
    // perturb live counts or a new tenant reusing the slot.
    live.cancel();
    daemon.cancel();
    EXPECT_EQ(queue.size(), 0u);

    int fired = 0;
    queue.push(sim::seconds(5), [&] { ++fired; });
    live.cancel(); // stale generation: still a no-op
    EXPECT_EQ(queue.size(), 1u);
    auto [at, cb] = queue.pop();
    cb();
    EXPECT_EQ(at, sim::seconds(5));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueClearTest, QueueIsReusableAfterClearIncludingEarlierTimes) {
    EventQueue queue;
    queue.push(sim::seconds(100), [] {});
    (void)queue.pop(); // wheel reference instant now 100 s
    queue.push(sim::seconds(200), [] {});
    queue.clear();
    // After clear the queue is empty, so scheduling may rewind to any
    // non-negative time again (a fresh Simulation run from t=0).
    std::vector<std::int64_t> order;
    queue.push(sim::seconds(2), [&] { order.push_back(2); });
    queue.push(sim::seconds(1), [&] { order.push_back(1); });
    while (!queue.empty()) queue.pop().second();
    EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2}));
}

TEST(EventQueueClearTest, ClearOnEmptyQueueIsNoOp) {
    EventQueue queue;
    queue.clear();
    EXPECT_TRUE(queue.empty());
    queue.push(sim::seconds(1), [] {});
    queue.clear();
    queue.clear(); // idempotent
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.total_scheduled(), 1u);
}

TEST(EventQueueClearTest, ClearAfterPartialDrainResetsCounters) {
    EventQueue queue;
    for (int i = 0; i < 8; ++i) {
        queue.push(sim::seconds(i + 1), [] {}, /*daemon=*/i % 2 == 0);
    }
    for (int i = 0; i < 3; ++i) (void)queue.pop();
    auto doomed = queue.push(sim::seconds(30), [] {});
    doomed.cancel();
    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.has_user_events());
    // Slots freed by clear are recycled for new pushes.
    auto handle = queue.push(sim::seconds(1), [] {});
    EXPECT_TRUE(handle.pending());
    EXPECT_EQ(queue.size(), 1u);
}

// ------------------------------------------------------------- reserve()

TEST(EventQueueReserve, ReserveDoesNotChangeObservableState) {
    EventQueue queue;
    queue.push(sim::seconds(2), [] {});
    queue.reserve(10'000);
    queue.push(sim::seconds(1), [] {});
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.next_time(), sim::seconds(1));
    EXPECT_EQ(queue.pop().first, sim::seconds(1));
    EXPECT_EQ(queue.pop().first, sim::seconds(2));
}

TEST(EventQueueReserve, SimulationForwardsReserve) {
    sim::Simulation simulation;
    simulation.reserve_events(4096);
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
        simulation.schedule(sim::milliseconds(i), [&] { ++fired; });
    }
    simulation.run();
    EXPECT_EQ(fired, 100);
}

} // namespace
