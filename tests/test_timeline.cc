/**
 * Differential tests for sim::PriorityTimeline: its indexed placement
 * (pruned-prefix head index, binary-searched out-of-order start, cached
 * in-order cursor) must grant exactly what a plain linear scan over
 * the same retained bookings grants, prune for prune.  Also checks
 * that a timeline restored from a checkpoint accepts only well-formed
 * bookings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/sim_state.hh"
#include "ckpt/state.hh"
#include "mem/bus.hh"
#include "mem/dram.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"

namespace {

using sim::Cycle;
using Interval = sim::PriorityTimeline::Interval;

/**
 * Reference model: the straightforward linear timeline.  Every request
 * scans the retained bookings from the front, inserts by scanning back
 * from the end, and pruning erases the dead prefix right away.  The
 * prune rule (16384-cycle margin behind the newest ready time, drop
 * the leading bookings that end by the boundary) is the production
 * one, so grants must match exactly, including the grants of stale
 * requests that arrive behind the boundary.
 */
class RefPriorityTimeline
{
  public:
    Cycle
    acquire(Cycle ready, Cycle duration, bool high_priority)
    {
        busyTotal_ += duration;
        if (ready < pruneBefore_)
            ++staleRequests_;
        prune(ready);
        Cycle t = ready;
        for (const Interval &b : bookings_) {
            if (b.end <= t)
                continue;
            if (high_priority && !b.high && b.start > ready)
                continue;
            if (b.start >= t + duration)
                break;
            t = b.end;
        }
        std::size_t at = bookings_.size();
        while (at > 0 && bookings_[at - 1].start > t)
            --at;
        bookings_.insert(bookings_.begin() +
                             static_cast<std::ptrdiff_t>(at),
                         Interval{t, t + duration, high_priority});
        return t;
    }

    Cycle busyTotal() const { return busyTotal_; }
    Cycle pruneBefore() const { return pruneBefore_; }
    std::uint64_t staleRequests() const { return staleRequests_; }
    const std::vector<Interval> &bookings() const { return bookings_; }

  private:
    void
    prune(Cycle ready)
    {
        constexpr Cycle margin = 16384;
        if (ready <= margin || ready - margin <= pruneBefore_)
            return;
        pruneBefore_ = ready - margin;
        std::size_t keep = 0;
        while (keep < bookings_.size() &&
               bookings_[keep].end <= pruneBefore_)
            ++keep;
        bookings_.erase(bookings_.begin(),
                        bookings_.begin() +
                            static_cast<std::ptrdiff_t>(keep));
    }

    std::vector<Interval> bookings_;
    Cycle pruneBefore_ = 0;
    Cycle busyTotal_ = 0;
    std::uint64_t staleRequests_ = 0;
};

struct Request
{
    Cycle ready;
    Cycle duration;
    bool high;
};

/**
 * A seeded request stream mixing what the machine produces: mostly
 * near-monotone ready times with small pre-booking jitter, both
 * priority classes, out-of-order requests inside and beyond the prune
 * margin, far-ahead bursts (a relocation sweep booking its table
 * accesses ahead of the clock) and occasional long bookings that
 * inflate the longest-duration bound.
 */
std::vector<Request>
makeStream(std::uint64_t seed, std::size_t n)
{
    // The machine books a few fixed occupancies (bus phases, row hits
    // and misses, channel transfers), so exact-boundary cases -- a
    // booking of the longest duration ending right at a ready time --
    // are common; draw from a similar small set.
    constexpr Cycle durations[] = {4, 8, 16, 20, 40};
    sim::Rng rng(seed);
    std::vector<Request> out;
    out.reserve(n);
    Cycle clock = 1000;
    while (out.size() < n) {
        clock += rng.below(48);
        const double kind = rng.real();
        Request r{clock + rng.below(64), durations[rng.below(5)],
                  rng.chance(0.6)};
        if (kind < 0.05) {
            // Out of order, inside the margin.
            r.ready = clock > 4000 ? clock - rng.below(4000) : clock;
        } else if (kind < 0.10) {
            // Just behind the newest requests, where displaced low
            // bookings and the cursor meet.
            r.ready = clock > 64 ? clock - rng.below(64) : clock;
        } else if (kind < 0.13) {
            // Out of order, beyond the margin (may be stale).
            const Cycle back = 16384 + rng.below(200000);
            r.ready = clock > back ? clock - back : 0;
        } else if (kind < 0.132) {
            // Long booking: widens the out-of-order search until it is
            // pruned and compacted away.
            r.duration = 1000 + rng.below(40000);
        } else if (kind < 0.142) {
            // Far-ahead burst, back to back like a remap sweep.
            Cycle at = clock + 20000 + rng.below(300000);
            const std::uint64_t burst = 1 + rng.below(60);
            for (std::uint64_t i = 0; i < burst && out.size() < n; ++i) {
                const Cycle d = 5 + rng.below(50);
                out.push_back({at, d, true});
                at += d + rng.below(8);
            }
            continue;
        }
        out.push_back(r);
    }
    return out;
}

/** Asserts @p tl holds exactly @p ref's retained state; @p stale_base
 *  is the reference's stale count when @p tl was last restored. */
void
expectSameState(const sim::PriorityTimeline &tl,
                const RefPriorityTimeline &ref, std::uint64_t stale_base,
                std::size_t step)
{
    const sim::PriorityTimeline::State st = tl.snapshot();
    ASSERT_EQ(st.busyTotal, ref.busyTotal()) << "step " << step;
    ASSERT_EQ(st.pruneBefore, ref.pruneBefore()) << "step " << step;
    ASSERT_EQ(stale_base + tl.staleRequests(), ref.staleRequests())
        << "step " << step;
    ASSERT_EQ(st.bookings.size(), ref.bookings().size())
        << "step " << step;
    for (std::size_t i = 0; i < st.bookings.size(); ++i) {
        const Interval &a = st.bookings[i];
        const Interval &b = ref.bookings()[i];
        ASSERT_TRUE(a.start == b.start && a.end == b.end &&
                    a.high == b.high)
            << "step " << step << " booking " << i;
    }
}

struct DiffOutcome
{
    std::uint64_t stale = 0;
    std::uint64_t outOfOrder = 0;
};

/** Replays @p stream through both models, comparing every grant and,
 *  periodically, the whole state.  Every @p restore_every requests the
 *  production timeline is snapshotted and continued from a fresh
 *  restored one. */
DiffOutcome
runDifferential(const std::vector<Request> &stream,
                std::size_t restore_every)
{
    sim::PriorityTimeline tl;
    RefPriorityTimeline ref;
    std::uint64_t stale_base = 0;
    DiffOutcome out;
    Cycle newest = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i > 0 && i % restore_every == 0) {
            sim::PriorityTimeline restored;
            restored.restore(tl.snapshot());
            tl = restored;
            // The passive stale counter is not checkpointed.
            stale_base = ref.staleRequests();
        }
        const Request &r = stream[i];
        out.outOfOrder += r.ready < newest;
        newest = std::max(newest, r.ready);
        const Cycle got = tl.acquire(r.ready, r.duration, r.high);
        const Cycle want = ref.acquire(r.ready, r.duration, r.high);
        EXPECT_EQ(got, want) << "request " << i << " ready " << r.ready
                             << " duration " << r.duration << " high "
                             << r.high;
        if (got != want)
            return out;
        if (i % 251 == 0 || i + 1 == stream.size()) {
            expectSameState(tl, ref, stale_base, i);
            if (::testing::Test::HasFatalFailure())
                return out;
        }
    }
    out.stale = ref.staleRequests();
    return out;
}

} // namespace

TEST(PriorityTimelineOracle, RandomStreamsMatchLinearReference)
{
    std::uint64_t stale = 0;
    std::uint64_t out_of_order = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const std::vector<Request> stream = makeStream(seed, 20000);
        const DiffOutcome o = runDifferential(stream, 4999 + seed * 101);
        if (HasFailure())
            FAIL() << "seed " << seed;
        stale += o.stale;
        out_of_order += o.outOfOrder;
    }
    // The streams must reach the regimes they are meant to cover.
    EXPECT_GT(stale, 1000u);
    EXPECT_GT(out_of_order, 10000u);
}

TEST(PriorityTimelineOracle, LongBookingWidensOutOfOrderSearch)
{
    // A request behind the cursor must still see a long booking that
    // started well before its ready time and runs past it.
    sim::PriorityTimeline tl;
    EXPECT_EQ(tl.acquire(0, 50000, true), 0u);          // [0,50000)
    EXPECT_EQ(tl.acquire(60000, 10, true), 60000u);     // cursor ahead
    EXPECT_EQ(tl.acquire(40000, 10, true), 50000u);     // behind it
    EXPECT_EQ(tl.acquire(55000, 100, false), 55000u);   // idle gap

    // Exact edge: the longest booking ends one cycle after the ready
    // time, so it starts just after ready - maxDuration.
    sim::PriorityTimeline edge;
    EXPECT_EQ(edge.acquire(100, 10, true), 100u);   // [100,110)
    EXPECT_EQ(edge.acquire(1000, 10, true), 1000u); // cursor ahead
    EXPECT_EQ(edge.acquire(109, 5, true), 110u);
}

TEST(PriorityTimelineOracle, PrunedSlotReuseKeepsCursorValid)
{
    // A booking placed in front of every live one reuses the newest
    // pruned slot; if it runs past the cursor's ready time the cursor
    // must move back over it.
    sim::PriorityTimeline tl;
    RefPriorityTimeline ref;
    const Request stream[] = {
        {0, 10, true},       // [0,10)
        {20, 10, true},      // [20,30)
        {20000, 10, false},  // prunes both; low [20000,20010) reuses a slot
        {19990, 30, true},   // displaces it: [19990,20020) in front
        {20005, 5, true},    // in order: waits until 20020
    };
    const Cycle want[] = {0, 20, 20000, 19990, 20020};
    for (std::size_t i = 0; i < 5; ++i) {
        const Request &r = stream[i];
        EXPECT_EQ(tl.acquire(r.ready, r.duration, r.high), want[i]);
        EXPECT_EQ(ref.acquire(r.ready, r.duration, r.high), want[i]);
    }
}

TEST(PriorityTimelineOracle, OutOfOrderInsertBehindCursorStaysVisible)
{
    // An out-of-order high request displaces low bookings the cursor
    // has already passed and runs past the cursor's ready time; the
    // next in-order request must still wait for it.
    sim::PriorityTimeline tl;
    RefPriorityTimeline ref;
    const Request stream[] = {
        {100, 10, false},  // low, [100,110)
        {200, 5, false},   // low, [200,205); cursor passes [100,110)
        {95, 150, true},   // displaces both: [95,245), behind the cursor
        {210, 5, true},    // in order again: waits until 245
    };
    const Cycle want[] = {100, 200, 95, 245};
    for (std::size_t i = 0; i < 4; ++i) {
        const Request &r = stream[i];
        EXPECT_EQ(tl.acquire(r.ready, r.duration, r.high), want[i]);
        EXPECT_EQ(ref.acquire(r.ready, r.duration, r.high), want[i]);
    }
}

TEST(PriorityTimelineOracle, StaleRequestsAreCounted)
{
    // A far-ahead booking drags the prune boundary forward; a request
    // behind the boundary is counted, and placed without the bookings
    // pruned before it -- exactly as the reference places it.
    sim::PriorityTimeline tl;
    RefPriorityTimeline ref;
    const Request stream[] = {
        {100, 50, true},     // [100,150)
        {200000, 10, true},  // boundary -> 183616, prunes [100,150)
        {120, 10, true},     // stale: lands at 120 on a pruned slot
        {190000, 10, false}, // behind the newest ready, not stale
    };
    for (const Request &r : stream)
        EXPECT_EQ(tl.acquire(r.ready, r.duration, r.high),
                  ref.acquire(r.ready, r.duration, r.high));
    EXPECT_EQ(tl.staleRequests(), 1u);
    EXPECT_EQ(ref.staleRequests(), 1u);
    tl.reset();
    EXPECT_EQ(tl.staleRequests(), 0u);

    // A booking that ends exactly at the boundary is pruned, so a
    // stale request may land on its slot.
    sim::PriorityTimeline edge;
    EXPECT_EQ(edge.acquire(0, 10, true), 0u);                // [0,10)
    EXPECT_EQ(edge.acquire(16394, 10, true), 16394u);        // boundary 10
    EXPECT_EQ(edge.snapshot().bookings.size(), 1u);
    EXPECT_EQ(edge.acquire(5, 10, true), 5u);
    EXPECT_EQ(edge.staleRequests(), 1u);
}

TEST(PriorityTimelineOracle, StaleRequestsAreRegisteredStats)
{
    // The bus and the DRAM expose their timelines' stale counts as
    // passive stats; the DRAM sums banks and channels.
    const mem::TimingParams tp;
    mem::Bus bus;
    mem::Dram dram(tp);
    sim::StatRegistry reg;
    bus.registerStats(reg);
    dram.registerStats(reg);
    bus.transfer(200000, 16, mem::BusTraffic::DemandData);
    bus.transfer(100, 16, mem::BusTraffic::DemandData);  // stale
    dram.accessLine(200000, 0, true);
    dram.accessLine(100, 0, true);  // stale at the bank and the channel
    const std::string json = reg.dumpJson();
    EXPECT_NE(json.find("\"bus.stale_requests\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"dram.stale_requests\": 2"), std::string::npos)
        << json;
}

namespace {

struct ForgedBooking
{
    std::uint64_t start;
    std::uint64_t end;
    bool high;
};

/** The bytes ckpt::save writes for a PriorityTimeline, forged:
 *  @p count is written as given, independent of @p bookings. */
std::string
forgedTimeline(const std::vector<ForgedBooking> &bookings,
               std::uint64_t count)
{
    ckpt::StateWriter w;
    w.u64(0);      // pruneBefore
    w.u64(1234);   // busyTotal
    w.u64(count);
    for (const ForgedBooking &b : bookings) {
        w.u64(b.start);
        w.u64(b.end);
        w.b(b.high);
    }
    return w.take();
}

/** The CkptError message ckpt::restore throws for @p payload, or ""
 *  when the payload is accepted. */
std::string
timelineRestoreError(const std::string &payload, const std::string &name)
{
    sim::PriorityTimeline tl;
    ckpt::StateReader r(payload);
    try {
        ckpt::restore(r, tl, name);
    } catch (const ckpt::CkptError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(TimelineRestore, WellFormedBookingsRoundTrip)
{
    const std::vector<ForgedBooking> ok = {
        {10, 20, true}, {10, 15, false}, {30, 40, false}};
    const std::string payload = forgedTimeline(ok, ok.size());
    sim::PriorityTimeline tl;
    ckpt::StateReader r(payload);
    ckpt::restore(r, tl, "bus");
    EXPECT_NO_THROW(r.finish());
    ckpt::StateWriter w;
    ckpt::save(w, tl);
    EXPECT_EQ(w.buffer(), payload);
    // The restored bookings are live: a demand request waits for the
    // high one, then slips into the gap before [30,40).
    EXPECT_EQ(tl.acquire(12, 5, true), 20u);
}

TEST(TimelineRestore, UnsortedBookingsRejected)
{
    const std::vector<ForgedBooking> bad = {{50, 60, true},
                                            {10, 20, true}};
    const std::string err =
        timelineRestoreError(forgedTimeline(bad, bad.size()),
                             "DRAM bank 3");
    EXPECT_NE(err.find("DRAM bank 3 timeline"), std::string::npos) << err;
    EXPECT_NE(err.find("not sorted by start"), std::string::npos) << err;
}

TEST(TimelineRestore, EmptyOrInvertedBookingRejected)
{
    for (const ForgedBooking &b :
         {ForgedBooking{10, 10, true}, ForgedBooking{30, 20, false}}) {
        const std::string err =
            timelineRestoreError(forgedTimeline({b}, 1), "bus");
        EXPECT_NE(err.find("bus timeline"), std::string::npos) << err;
        EXPECT_NE(err.find("ends at or before its start"),
                  std::string::npos)
            << err;
    }
}

TEST(TimelineRestore, CountBeyondPayloadRejected)
{
    // A count the payload cannot hold must be rejected before any
    // allocation is sized from it -- including an absurd one.
    const std::vector<ForgedBooking> one = {{10, 20, true}};
    for (std::uint64_t count : {std::uint64_t{2}, std::uint64_t{1} << 62}) {
        const std::string err = timelineRestoreError(
            forgedTimeline(one, count), "DRAM channel 1");
        EXPECT_NE(err.find("DRAM channel 1 timeline"), std::string::npos)
            << err;
        EXPECT_NE(err.find("exceeds the remaining payload"),
                  std::string::npos)
            << err;
    }
}
