/**
 * @file
 * The global discrete-event queue that orders all state mutations.
 *
 * Components never mutate shared state "in the future": anything that
 * happens at a later cycle is scheduled as an event.  Events at the same
 * cycle execute in scheduling order (a monotone sequence number breaks
 * ties), which makes runs fully deterministic.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/action.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sim {

/**
 * Identity of a pending event's action, for checkpointing.  Closures
 * cannot be serialized, so every event that may be pending at a
 * checkpoint carries a kind tag plus up to two integer arguments; on
 * restore the owning component rebuilds the closure from the tag (the
 * saveState/restoreState contract).  Untagged events are legal at
 * runtime but make the queue uncheckpointable at that instant.
 */
enum class EventKind : std::uint32_t {
    Untagged = 0,      //!< plain schedule(); not checkpointable
    ProcStep,          //!< MainProcessor::step resume (no args)
    MemDemandDone,     //!< MemorySystem demand completion (arg0=line)
    MemPfArrival,      //!< MemorySystem prefetch arrival
                       //!< (arg0=line, arg1=arrival cycle)
    UlmtProcess,       //!< UlmtEngine::processNext kick (no args)
    MemCpuPfDone,      //!< MemorySystem CPU-prefetch completion
                       //!< (arg0=line)
    VmRemap,           //!< Vm periodic page-remap tick (no args)
};

/** A pending event in serializable form. */
struct SavedEvent
{
    Cycle when = 0;
    std::uint64_t seq = 0; //!< original tie-break sequence number
    std::uint32_t kind = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
};

/** A deterministic discrete-event scheduler. */
class EventQueue
{
  public:
    using Action = InplaceAction;

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /** Number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Next tie-break sequence number (checkpointing). */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /** Number of events currently pending. */
    std::size_t pending() const { return events_.size(); }

    /**
     * Install a passive periodic observer.  The ticker fires between
     * events, the first time simulated time reaches now()+interval and
     * then at least @p interval cycles apart (stamped with the actual
     * cycle, which may overshoot when events are sparse).  Because it
     * runs outside the event stream it MUST NOT schedule events or
     * mutate simulated state -- it exists for observability (the
     * time-series sampler), and executed()/timing are bit-identical
     * with or without a ticker installed.  The disabled path costs a
     * single comparison per event.
     */
    void
    setTicker(Cycle interval, std::function<void(Cycle)> fn)
    {
        SIM_ASSERT(interval > 0, "ticker needs a nonzero interval");
        SIM_ASSERT(fn != nullptr, "null ticker");
        ticker_ = std::move(fn);
        tickInterval_ = interval;
        tickDue_ = now_ + interval;
    }

    /** Remove the ticker (the disabled path: one compare per event). */
    void
    clearTicker()
    {
        ticker_ = nullptr;
        tickDue_ = neverCycle;
    }

    /**
     * Install a passive inspector that fires between events every
     * @p every_events executed events.  Like the ticker it runs at a
     * consistent instant (no action half-applied) and MUST NOT mutate
     * simulated state; unlike the ticker it is keyed to the event
     * count, not the clock, so a fixed cadence costs the same work on
     * sparse and dense timelines.  The invariant checker hangs off
     * this hook; it may throw to abort a run that failed a check.
     * The disabled path costs a single comparison per event.
     */
    void
    setInspector(std::uint64_t every_events, std::function<void()> fn)
    {
        SIM_ASSERT(every_events > 0, "inspector needs a nonzero cadence");
        SIM_ASSERT(fn != nullptr, "null inspector");
        inspector_ = std::move(fn);
        inspectEvery_ = every_events;
        inspectDue_ = executed_ + every_events;
    }

    /** Remove the inspector (one compare per event when disabled). */
    void
    clearInspector()
    {
        inspector_ = nullptr;
        inspectDue_ = UINT64_MAX;
    }

    /**
     * Schedule an action at an absolute cycle.  Scheduling in the past
     * is a simulator bug.
     */
    void
    schedule(Cycle when, Action action)
    {
        schedule(when, EventKind::Untagged, 0, 0, std::move(action));
    }

    /**
     * Schedule a *tagged* action: @p kind and the args identify the
     * closure well enough for the owning component to rebuild it after
     * a checkpoint restore.
     */
    void
    schedule(Cycle when, EventKind kind, std::uint64_t arg0,
             std::uint64_t arg1, Action action)
    {
        SIM_ASSERT(when >= now_,
                   "scheduled at %llu before now %llu",
                   (unsigned long long)when, (unsigned long long)now_);
        events_.push_back(Event{when, nextSeq_++,
                                static_cast<std::uint32_t>(kind), arg0,
                                arg1, std::move(action)});
        siftUp(events_.size() - 1);
    }

    /** Schedule an action a relative number of cycles in the future. */
    void
    scheduleIn(Cycle delay, Action action)
    {
        schedule(now_ + delay, std::move(action));
    }

    /**
     * Snapshot the pending events' tags, sorted by execution order
     * (when, seq).  Entries with kind == Untagged cannot be restored;
     * the checkpoint layer rejects them.
     */
    std::vector<SavedEvent>
    saveEvents() const
    {
        std::vector<SavedEvent> out;
        out.reserve(events_.size());
        for (const Event &e : events_)
            out.push_back(
                SavedEvent{e.when, e.seq, e.kind, e.arg0, e.arg1});
        std::sort(out.begin(), out.end(),
                  [](const SavedEvent &a, const SavedEvent &b) {
                      return a.when != b.when ? a.when < b.when
                                              : a.seq < b.seq;
                  });
        return out;
    }

    /**
     * Rebuild the queue from a snapshot: clock, sequence counter,
     * executed count, and every pending event with its *original*
     * (when, seq) pair -- tie-breaking after restore is bit-identical
     * to the run the snapshot was taken from.  @p resolve maps each
     * SavedEvent back to its closure.
     */
    void
    restoreEvents(
        Cycle now, std::uint64_t next_seq, std::uint64_t executed,
        const std::vector<SavedEvent> &events,
        const std::function<Action(const SavedEvent &)> &resolve)
    {
        events_.clear();
        now_ = now;
        nextSeq_ = next_seq;
        executed_ = executed;
        for (const SavedEvent &s : events) {
            SIM_ASSERT(s.when >= now_ && s.seq < next_seq,
                       "restored event outside snapshot bounds");
            events_.push_back(Event{s.when, s.seq, s.kind, s.arg0,
                                    s.arg1, resolve(s)});
            siftUp(events_.size() - 1);
        }
        // A ticker installed before the restore was armed relative to
        // cycle 0; re-arm it relative to the restored clock.  (The
        // ticker is passive observability, excluded from fingerprints.)
        if (ticker_)
            tickDue_ = now_ + tickInterval_;
        if (inspector_)
            inspectDue_ = executed_ + inspectEvery_;
    }

    /**
     * Install a break predicate, checked after every executed event.
     * When it returns true, run() stops *between* events (a consistent
     * instant: no action half-applied) with breakHit() set.  Used by
     * the checkpoint trigger; the disabled path costs one compare per
     * event.
     */
    void
    setBreakCheck(std::function<bool(Cycle)> fn)
    {
        breakCheck_ = std::move(fn);
    }

    void clearBreakCheck() { breakCheck_ = nullptr; }

    /** True when the last run() returned because of the break check. */
    bool breakHit() const { return breakHit_; }

    /**
     * Execute events in order until the queue drains or the event limit
     * is hit.
     *
     * @param max_events Safety valve against runaway simulations.
     * @return true if the queue drained, false if the limit was hit.
     */
    bool
    run(std::uint64_t max_events = UINT64_MAX)
    {
        breakHit_ = false;
        while (!events_.empty()) {
            if (executed_ >= max_events)
                return false;
            Event &top = events_.front();
            SIM_ASSERT(top.when >= now_, "event queue went backwards");
            now_ = top.when;
            Action action = std::move(top.action);
            popTop();
            ++executed_;
            action();
            if (now_ >= tickDue_) {
                ticker_(now_);
                tickDue_ = now_ + tickInterval_;
            }
            if (executed_ >= inspectDue_) {
                inspector_();
                inspectDue_ = executed_ + inspectEvery_;
            }
            if (breakCheck_ && breakCheck_(now_)) {
                breakHit_ = true;
                return false;
            }
        }
        return true;
    }

    /** Drop all pending events (used between experiment runs). */
    void
    clear()
    {
        events_.clear();
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t kind;
        std::uint64_t arg0;
        std::uint64_t arg1;
        Action action;
    };

    /** Strict total order: (when, seq) is unique per event, so heap
     *  extraction reproduces the exact order the old priority_queue
     *  produced. */
    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Remove the root of the min-heap (its action already moved out). */
    void
    popTop()
    {
        Event last = std::move(events_.back());
        events_.pop_back();
        if (!events_.empty()) {
            events_.front() = std::move(last);
            siftDown(0);
        }
    }

    // Hole-based sifts: one move per level instead of a three-move
    // swap, which matters at millions of events per run.
    void
    siftUp(std::size_t i)
    {
        Event e = std::move(events_[i]);
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(e, events_[parent]))
                break;
            events_[i] = std::move(events_[parent]);
            i = parent;
        }
        events_[i] = std::move(e);
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = events_.size();
        Event e = std::move(events_[i]);
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                earlier(events_[child + 1], events_[child]))
                ++child;
            if (!earlier(events_[child], e))
                break;
            events_[i] = std::move(events_[child]);
            i = child;
        }
        events_[i] = std::move(e);
    }

    std::vector<Event> events_;  //!< binary min-heap by (when, seq)
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    /** Passive observability ticker (neverCycle = disabled). */
    Cycle tickDue_ = neverCycle;
    Cycle tickInterval_ = 0;
    std::function<void(Cycle)> ticker_;
    /** Passive event-count inspector (UINT64_MAX = disabled). */
    std::uint64_t inspectDue_ = UINT64_MAX;
    std::uint64_t inspectEvery_ = 0;
    std::function<void()> inspector_;
    /** Between-event stop predicate (checkpoint trigger). */
    std::function<bool(Cycle)> breakCheck_;
    bool breakHit_ = false;
};

/**
 * A shared resource that is busy for an interval per grant, e.g. a bus
 * or a DRAM bank.  Requests are granted first-come-first-served in
 * event order: a request that becomes ready at cycle R is granted at
 * max(R, nextFree) and the resource is then busy for the stated
 * duration.
 *
 * Because the event queue processes requests in time order, the
 * timeline only ever moves forward and captures contention from every
 * earlier-granted request.
 */
class ResourceTimeline
{
  public:
    /** Reserve the resource; returns the grant (start) cycle. */
    Cycle
    acquire(Cycle ready, Cycle duration)
    {
        Cycle start = ready > nextFree_ ? ready : nextFree_;
        nextFree_ = start + duration;
        busyTotal_ += duration;
        return start;
    }

    /** First cycle at which the resource is idle. */
    Cycle nextFree() const { return nextFree_; }

    /** Total busy time accumulated. */
    Cycle busyTotal() const { return busyTotal_; }

    void
    reset()
    {
        nextFree_ = 0;
        busyTotal_ = 0;
    }

    /** Complete serializable state (checkpointing). */
    struct State
    {
        Cycle nextFree = 0;
        Cycle busyTotal = 0;
    };

    State snapshot() const { return State{nextFree_, busyTotal_}; }

    void
    restore(const State &s)
    {
        nextFree_ = s.nextFree;
        busyTotal_ = s.busyTotal;
    }

  private:
    Cycle nextFree_ = 0;
    Cycle busyTotal_ = 0;
};

/**
 * A shared resource with two priority classes, modeling the paper's
 * rule that prefetch traffic (queue 3) has lower priority than demand
 * traffic (queue 1).
 *
 * Callers may reserve the resource for ready times in the near future
 * (a demand fetch books its DRAM slot after its queueing delays), so
 * grants cannot be first-come-first-served in call order.  Instead the
 * timeline keeps the set of booked intervals and places each request
 * in the earliest idle gap at or after its ready time that is long
 * enough for it.  A low-priority request respects every booking, but
 * it may still fill an idle gap that lies before a later booking; a
 * high-priority request waits only for bookings of its own class plus
 * at most one low-priority transfer that had already started at its
 * ready time (non-preemptive service).
 *
 * Placement costs O(log n) plus the bookings the request overlaps.
 * The live bookings are bookings_[head_..), sorted by start.  The gap
 * search starts past every booking that ends at or before the ready
 * time: an in-order request resumes from a cached cursor, and an
 * out-of-order one binary-searches for the first booking that starts
 * after ready - maxDuration_ (anything earlier ends by ready).
 */
class PriorityTimeline
{
  public:
    /** One booked busy interval on the resource. */
    struct Interval
    {
        Cycle start;
        Cycle end;
        bool high;
    };

    /** Reserve the resource; returns the grant (start) cycle. */
    Cycle
    acquire(Cycle ready, Cycle duration, bool high_priority)
    {
        SIM_ASSERT(duration > 0, "zero-length resource reservation");
        busyTotal_ += duration;
        if (ready < pruneBefore_)
            ++staleRequests_;
        prune(ready);

        const std::size_t first = searchStart(ready);
        Cycle t = ready;
        std::size_t pos = first;
        for (; pos < bookings_.size(); ++pos) {
            const Interval &b = bookings_[pos];
            if (b.end <= t)
                continue;
            // A high-priority request displaces low-priority bookings
            // that have not started by its ready time (the controller
            // reorders its queues); it cannot preempt one in progress
            // and never displaces another high-priority booking.  A
            // low-priority request respects every booking.
            if (high_priority && !b.high && b.start > ready)
                continue;
            if (b.start >= t + duration)
                break;  // fits in the gap before this booking
            t = b.end;
        }
        // Insert keeping the list sorted by start (overcommit from
        // displaced low bookings can make it non-disjoint, which the
        // gap search tolerates): after every booking that starts at or
        // before t.  Those before `first` end by ready <= t, and the
        // one the search stopped at starts after t.
        std::size_t at = firstStartAfter(first, pos, t);
        const Interval booking{t, t + duration, high_priority};
        if (at == head_ && head_ > 0) {
            at = --head_;  // reuse the newest pruned slot
            bookings_[at] = booking;
        } else {
            bookings_.insert(bookings_.begin() +
                                 static_cast<std::ptrdiff_t>(at),
                             booking);
        }
        maxDuration_ = std::max(maxDuration_, duration);
        // The new booking ends after its ready time, so it may violate
        // the cursor invariant if it landed inside the skipped prefix.
        if (at < cursor_)
            cursor_ = at;
        return t;
    }

    Cycle busyTotal() const { return busyTotal_; }

    /**
     * Requests whose ready time was already behind the prune boundary
     * (DESIGN.md sect. 5): they are placed without the bookings pruned
     * before them, so they may land in a slot that full history would
     * show as taken.  Passive: not checkpointed and excluded from every
     * fingerprint.
     */
    std::uint64_t staleRequests() const { return staleRequests_; }

    void
    reset()
    {
        bookings_.clear();
        head_ = 0;
        maxDuration_ = 0;
        pruneBefore_ = 0;
        busyTotal_ = 0;
        staleRequests_ = 0;
        cursor_ = 0;
        cursorReady_ = 0;
    }

    /** Complete serializable state (checkpointing). */
    struct State
    {
        /** Live bookings, sorted by start, each with end > start. */
        std::vector<Interval> bookings;
        Cycle pruneBefore = 0;
        Cycle busyTotal = 0;
    };

    State
    snapshot() const
    {
        return State{std::vector<Interval>(
                         bookings_.begin() +
                             static_cast<std::ptrdiff_t>(head_),
                         bookings_.end()),
                     pruneBefore_, busyTotal_};
    }

    /** @p s must hold its invariants (ckpt::restore validates them). */
    void
    restore(const State &s)
    {
        bookings_ = s.bookings;
        head_ = 0;
        refreshMaxDuration();
        pruneBefore_ = s.pruneBefore;
        busyTotal_ = s.busyTotal;
        // The cursor is a pure search accelerator; restarting it from
        // the front changes placement decisions not at all.
        cursor_ = 0;
        cursorReady_ = 0;
    }

  private:
    /**
     * Index of the first booking the gap search for @p ready must
     * visit; every live booking before it ends at or before @p ready.
     */
    std::size_t
    searchStart(Cycle ready)
    {
        // Invariant: every live booking before cursor_ ends at or
        // before cursorReady_.  Ready times arrive almost monotonically
        // in event order, so the cursor usually needs a step or two.
        if (ready >= cursorReady_) {
            std::size_t pos = cursor_;
            while (pos < bookings_.size() && bookings_[pos].end <= ready)
                ++pos;
            cursor_ = pos;
            cursorReady_ = ready;
            return pos;
        }
        // Out of order: a booking that starts at or before
        // ready - maxDuration_ ends at or before ready.
        if (ready < maxDuration_)
            return head_;
        return firstStartAfter(head_, bookings_.size(),
                               ready - maxDuration_);
    }

    /** Index of the first booking in [lo, hi) that starts after @p v
     *  (hi if none does). */
    std::size_t
    firstStartAfter(std::size_t lo, std::size_t hi, Cycle v) const
    {
        const auto it = std::upper_bound(
            bookings_.begin() + static_cast<std::ptrdiff_t>(lo),
            bookings_.begin() + static_cast<std::ptrdiff_t>(hi), v,
            [](Cycle x, const Interval &b) { return x < b.start; });
        return static_cast<std::size_t>(it - bookings_.begin());
    }

    /**
     * Drop the leading bookings that end a full margin behind the
     * newest ready time seen.  The boundary follows ready times, not
     * the event clock, so one far-ahead request drags it forward; a
     * later request behind it (counted in staleRequests_) is placed
     * without the dropped bookings.  On remap-heavy machines such
     * requests arrive far more than the margin behind (a known defect,
     * DESIGN.md sect. 5).
     */
    void
    prune(Cycle ready)
    {
        constexpr Cycle margin = 16384;
        if (ready <= margin || ready - margin <= pruneBefore_)
            return;
        pruneBefore_ = ready - margin;
        while (head_ < bookings_.size() &&
               bookings_[head_].end <= pruneBefore_)
            ++head_;
        cursor_ = std::max(cursor_, head_);
        // Compact once the dead prefix is at least as long as the live
        // part: a compaction moves no more bookings than it frees, and
        // storage stays within twice the live bookings plus the floor.
        constexpr std::size_t compactFloor = 64;
        if (head_ >= compactFloor && head_ >= bookings_.size() - head_) {
            bookings_.erase(bookings_.begin(),
                            bookings_.begin() +
                                static_cast<std::ptrdiff_t>(head_));
            cursor_ -= head_;
            head_ = 0;
            refreshMaxDuration();
        }
    }

    /** Tighten maxDuration_ to the longest live booking. */
    void
    refreshMaxDuration()
    {
        maxDuration_ = 0;
        for (std::size_t i = head_; i < bookings_.size(); ++i)
            maxDuration_ = std::max(maxDuration_,
                                    bookings_[i].end - bookings_[i].start);
    }

    /** bookings_[0..head_) are pruned slots awaiting compaction. */
    std::vector<Interval> bookings_;
    std::size_t head_ = 0;
    /** At least the longest live booking's duration. */
    Cycle maxDuration_ = 0;
    Cycle pruneBefore_ = 0;
    Cycle busyTotal_ = 0;
    std::uint64_t staleRequests_ = 0;
    /** Gap-search resume point: bookings_[head_..cursor_) all end at
     *  or before cursorReady_. */
    std::size_t cursor_ = 0;
    Cycle cursorReady_ = 0;
};

} // namespace sim

#endif // SIM_EVENT_QUEUE_HH
