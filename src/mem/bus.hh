/**
 * @file
 * The split-transaction front-side memory bus (8 B wide, 400 MHz).
 *
 * Each transaction reserves the bus for an address phase (requests) or
 * a data phase (line transfers).  Busy time is accounted per traffic
 * class so Figure 11's decomposition (utilization attributable to
 * prefetch traffic vs. everything else) can be regenerated.
 */

#ifndef MEM_BUS_HH
#define MEM_BUS_HH

#include <array>
#include <cstdint>

#include "ckpt/sim_state.hh"
#include "sim/event_queue.hh"
#include "sim/stat_registry.hh"
#include "sim/trace_event.hh"
#include "sim/types.hh"

namespace mem {

/** Traffic classes tracked separately on the bus. */
enum class BusTraffic : std::uint8_t {
    DemandRequest,
    DemandData,
    CpuPrefetchRequest,
    CpuPrefetchData,
    UlmtPrefetchData,  //!< pushed lines travelling to the L2
    Writeback,
    NumClasses
};

/** Stable lower-case name of a traffic class (stats, trace spans). */
constexpr const char *
busTrafficName(BusTraffic cls)
{
    switch (cls) {
      case BusTraffic::DemandRequest: return "demand_request";
      case BusTraffic::DemandData: return "demand_data";
      case BusTraffic::CpuPrefetchRequest: return "cpu_pf_request";
      case BusTraffic::CpuPrefetchData: return "cpu_pf_data";
      case BusTraffic::UlmtPrefetchData: return "ulmt_pf_data";
      case BusTraffic::Writeback: return "writeback";
      case BusTraffic::NumClasses: break;
    }
    return "unknown";
}

/** The shared processor <-> memory bus. */
class Bus
{
  public:
    /**
     * Reserve the bus for one phase.  Processor-originated traffic
     * (demand and processor-prefetch) has priority over ULMT pushes
     * and write-backs, per the queue-1-over-queue-3 rule of Fig. 3.
     *
     * @param ready    earliest cycle the transaction can start
     * @param duration bus occupancy in main-processor cycles
     * @param cls      traffic class for utilization accounting
     * @return the cycle the phase completes
     */
    sim::Cycle
    transfer(sim::Cycle ready, sim::Cycle duration, BusTraffic cls)
    {
        const bool high = cls == BusTraffic::DemandRequest ||
                          cls == BusTraffic::DemandData;
        sim::Cycle start = timeline_.acquire(ready, duration, high);
        busyByClass_[static_cast<std::size_t>(cls)] += duration;
        if (trace_)
            trace_->complete(busTrafficName(cls), "bus", start,
                             duration, sim::traceTidBus);
        return start + duration;
    }

    /** Total busy cycles across all classes. */
    sim::Cycle
    busyTotal() const
    {
        return timeline_.busyTotal();
    }

    /** Busy cycles of one traffic class. */
    sim::Cycle
    busy(BusTraffic cls) const
    {
        return busyByClass_[static_cast<std::size_t>(cls)];
    }

    /** Busy cycles of all prefetch-attributable classes. */
    sim::Cycle
    busyPrefetch() const
    {
        return busy(BusTraffic::CpuPrefetchRequest) +
               busy(BusTraffic::CpuPrefetchData) +
               busy(BusTraffic::UlmtPrefetchData);
    }

    void
    reset()
    {
        timeline_.reset();
        busyByClass_.fill(0);
    }

    /** Register per-class busy counters under "bus.busy.*" and the
     *  passive "bus.stale_requests" (sim::PriorityTimeline). */
    void
    registerStats(sim::StatRegistry &reg) const
    {
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(BusTraffic::NumClasses); ++i)
            reg.addCounter("bus.busy." +
                               std::string(busTrafficName(
                                   static_cast<BusTraffic>(i))),
                           &busyByClass_[i]);
        reg.addGauge("bus.busy.total",
                     [this] {
                         return static_cast<double>(
                             timeline_.busyTotal());
                     });
        const sim::StatRegistry::PassiveScope passive(reg);
        reg.addGauge("bus.stale_requests", [this] {
            return static_cast<double>(timeline_.staleRequests());
        });
    }

    /** Emit spans into @p t (nullptr disables; the default). */
    void setTrace(sim::TraceEventBuffer *t) { trace_ = t; }

    /** Serialize arbitration state + per-class busy accounting. */
    void
    saveState(ckpt::StateWriter &w) const
    {
        ckpt::save(w, timeline_);
        for (sim::Cycle busy : busyByClass_)
            w.u64(busy);
    }

    void
    restoreState(ckpt::StateReader &r)
    {
        ckpt::restore(r, timeline_, "bus");
        for (sim::Cycle &busy : busyByClass_)
            busy = r.u64();
    }

  private:
    sim::PriorityTimeline timeline_;
    std::array<sim::Cycle,
               static_cast<std::size_t>(BusTraffic::NumClasses)>
        busyByClass_{};
    sim::TraceEventBuffer *trace_ = nullptr;
};

} // namespace mem

#endif // MEM_BUS_HH
