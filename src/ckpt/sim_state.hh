/**
 * @file
 * Serialization adapters for the sim/ layer's value types.
 *
 * The sim/ layer stays checkpoint-agnostic: its classes expose plain
 * snapshot()/restore() state structs and know nothing about the
 * on-disk encoding.  These helpers map those structs onto a
 * StateWriter/StateReader so every component (mem, cpu, core, driver)
 * encodes a SampleStat, timeline or RNG identically.
 */

#ifndef CKPT_SIM_STATE_HH
#define CKPT_SIM_STATE_HH

#include <string>

#include "ckpt/state.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace ckpt {

inline void
save(StateWriter &w, const sim::SampleStat &s)
{
    const sim::SampleStat::State st = s.snapshot();
    w.u64(st.count);
    w.f64(st.sum);
    w.f64(st.min);
    w.f64(st.max);
    w.f64(st.welfordMean);
    w.f64(st.m2);
}

inline void
restore(StateReader &r, sim::SampleStat &s)
{
    sim::SampleStat::State st;
    st.count = r.u64();
    st.sum = r.f64();
    st.min = r.f64();
    st.max = r.f64();
    st.welfordMean = r.f64();
    st.m2 = r.f64();
    s.restore(st);
}

inline void
save(StateWriter &w, const sim::BinnedHistogram &h)
{
    w.u64(h.numBins());
    for (std::size_t i = 0; i < h.numBins(); ++i)
        w.u64(h.binCount(i));
    w.u64(h.total());
    w.u64(h.below());
}

inline void
restore(StateReader &r, sim::BinnedHistogram &h)
{
    const std::uint64_t bins = r.u64();
    if (bins != h.numBins())
        throw CkptError(
            "histogram bin count in checkpoint does not match the "
            "configuration");
    std::vector<std::uint64_t> counts(bins);
    for (auto &c : counts)
        c = r.u64();
    const std::uint64_t total = r.u64();
    const std::uint64_t below = r.u64();
    h.restoreCounts(counts, total, below);
}

inline void
save(StateWriter &w, const sim::ResourceTimeline &t)
{
    const sim::ResourceTimeline::State st = t.snapshot();
    w.u64(st.nextFree);
    w.u64(st.busyTotal);
}

inline void
restore(StateReader &r, sim::ResourceTimeline &t)
{
    sim::ResourceTimeline::State st;
    st.nextFree = r.u64();
    st.busyTotal = r.u64();
    t.restore(st);
}

inline void
save(StateWriter &w, const sim::PriorityTimeline &t)
{
    const sim::PriorityTimeline::State st = t.snapshot();
    w.u64(st.pruneBefore);
    w.u64(st.busyTotal);
    w.u64(st.bookings.size());
    for (const sim::PriorityTimeline::Interval &b : st.bookings) {
        w.u64(b.start);
        w.u64(b.end);
        w.b(b.high);
    }
}

/**
 * Restore timeline @p t, named @p name in any error.  The placement
 * search relies on the bookings being sorted by start, each with
 * end > start, so a checkpoint that breaks either is rejected, as is a
 * booking count the remaining payload cannot hold.
 */
inline void
restore(StateReader &r, sim::PriorityTimeline &t, const std::string &name)
{
    sim::PriorityTimeline::State st;
    st.pruneBefore = r.u64();
    st.busyTotal = r.u64();
    const std::uint64_t n = r.u64();
    // Each booking takes at least three bytes: two varints and a bool.
    if (n > r.remaining() / 3)
        throw CkptError(name + " timeline: booking count " +
                        std::to_string(n) +
                        " exceeds the remaining payload");
    st.bookings.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        sim::PriorityTimeline::Interval iv;
        iv.start = r.u64();
        iv.end = r.u64();
        iv.high = r.b();
        if (iv.end <= iv.start)
            throw CkptError(name + " timeline: booking " +
                            std::to_string(i) + " ends at or before "
                            "its start");
        if (!st.bookings.empty() && iv.start < st.bookings.back().start)
            throw CkptError(name + " timeline: booking " +
                            std::to_string(i) +
                            " is not sorted by start");
        st.bookings.push_back(iv);
    }
    t.restore(st);
}

inline void
save(StateWriter &w, const sim::Rng &rng)
{
    const sim::Rng::State st = rng.state();
    for (std::uint64_t word : st.s)
        w.u64(word);
}

inline void
restore(StateReader &r, sim::Rng &rng)
{
    sim::Rng::State st;
    for (auto &word : st.s)
        word = r.u64();
    rng.setState(st);
}

} // namespace ckpt

#endif // CKPT_SIM_STATE_HH
