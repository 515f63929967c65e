// Cold path of the timing wheel: staging the earliest bucket when the
// current instant's group has drained. Runs once per distinct timestamp (not
// once per event), so it lives out of line; the per-event paths are inline in
// the header.
#include "simcore/timer_wheel.hpp"

namespace tedge::sim {

void TimerWheel::stage(int level, std::size_t idx) {
    Bucket& bucket = buckets_[level][idx];
    clear_bucket_bit(level, idx);
    ++cascade_.stages;
    cascade_.max_stage_burst =
        std::max(cascade_.max_stage_burst, std::uint64_t{bucket.size()});
    // ready_ is empty here (pop_min only advances after draining it). Copy
    // the bucket out instead of stealing its storage: a swap would migrate
    // vector capacity away from the bucket, so periodic tenants (expiry
    // scans, epoch ticks) that re-file into the same buckets every rotation
    // would hit the allocator on each cascade -- the source of the wheel's
    // tail-latency spikes at small queue sizes. With copy + clear() both
    // ready_ and every bucket grow once to their high-water mark and staging
    // is allocation-free from then on.
    ready_.assign(bucket.begin(), bucket.end());
    bucket.clear();
    ready_head_ = 0;
    if (ready_.size() == 1) {
        // The common steady-state shape -- one timer per instant -- needs no
        // min scan and no re-filing.
        cur_ = ready_.front().at;
        return;
    }
    if (level > 0) {
        // Higher-level buckets span a timestamp range: the minimum becomes
        // the new reference instant and everything later re-files. A
        // bucket-mate shares all bits at and above this level's field with
        // the new cur_, so it lands strictly below `level` -- each entry
        // cascades at most kLevels times over its lifetime.
        std::uint64_t best = ready_.front().at;
        for (const Entry& e : ready_) best = std::min(best, e.at);
        cur_ = best;
        std::size_t w = 0;
        for (const Entry& e : ready_) {
            if (e.at == cur_) {
                ready_[w++] = e;
            } else {
                file(e);
                ++cascade_.refiled;
            }
        }
        ready_.resize(w);
    } else {
        // A level-0 bucket holds exactly one timestamp.
        cur_ = ready_.front().at;
    }
    // No sort: a bucket's same-instant entries are already seq-ascending
    // (header, "Determinism"), and the compaction above keeps their order.
}

} // namespace tedge::sim
