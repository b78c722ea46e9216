/**
 * @file
 * Timing and sizing parameters of the simulated machine.
 *
 * The defaults follow Table 3 of the paper exactly.  All latencies are
 * in 1.6 GHz main-processor cycles; round-trip (RT) latencies are
 * decomposed into path components so that contention can be applied at
 * the right resource (front-side bus, DRAM bank, DRAM channel).
 *
 * Decomposition of the paper's RT memory latencies (208 row hit / 243
 * row miss, contention-free, from the main processor):
 *
 *     reqPathCycles (48) + bank (32 / 67) + channel (64)
 *     + respPathCycles (64)  =  208 / 243
 *
 * The memory processor's table accesses see RT 21/56 when it sits in
 * the DRAM chip and 65/100 when it sits in the North Bridge, matching
 * Table 3 with the component values below.
 */

#ifndef MEM_TIMING_PARAMS_HH
#define MEM_TIMING_PARAMS_HH

#include <cstdint>

#include "sim/types.hh"

namespace mem {

/** Where the memory processor that runs the ULMT is placed (Fig. 3). */
enum class MemProcPlacement : std::uint8_t {
    InDram,       //!< Integrated in the DRAM chip (Fig. 3-b).
    NorthBridge   //!< In the memory-controller chip (Fig. 3-a).
};

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t lineBytes;

    std::uint32_t numLines() const { return sizeBytes / lineBytes; }
    std::uint32_t numSets() const { return numLines() / assoc; }

    /** Every field, named once (sim/fields.hh). */
    template <class V>
    static constexpr void
    forEachField(V &&v)
    {
        v("sizeBytes", &CacheGeometry::sizeBytes);
        v("assoc", &CacheGeometry::assoc);
        v("lineBytes", &CacheGeometry::lineBytes);
    }
};

/** All machine parameters (Table 3 defaults). */
struct TimingParams
{
    // ------------------------------------------------------------------
    // Main processor core.
    std::uint32_t issueWidth = 6;          //!< ops issued per cycle
    std::uint32_t maxPendingLoads = 8;
    std::uint32_t maxPendingStores = 16;
    /** Reorder-buffer entries: bounds how far issue runs past the
     *  oldest incomplete load (limits streaming MLP). */
    std::uint32_t robSize = 128;

    // ------------------------------------------------------------------
    // Main processor cache hierarchy.
    CacheGeometry l1 = {16 * 1024, 2, 32};   //!< 16 KB, 2-way, 32 B
    CacheGeometry l2 = {512 * 1024, 4, 64};  //!< 512 KB, 4-way, 64 B
    /** Conven4 stream prefetcher (Table 4: NumSeq=4, NumPref=6). */
    std::uint32_t streamNumSeq = 4;
    std::uint32_t streamNumPref = 6;
    sim::Cycle l1HitRt = 3;                  //!< L1 hit round trip
    sim::Cycle l2HitRt = 19;                 //!< L2 hit round trip
    std::uint32_t l2Mshrs = 16;              //!< L2 miss-status registers

    // ------------------------------------------------------------------
    // Front-side (main memory) bus: split transaction, 8 B, 400 MHz.
    sim::Cycle busCyclesPerBeat = 4;   //!< 1.6 GHz cycles per bus cycle
    std::uint32_t busBytesPerBeat = 8;
    /** Bus occupancy of a request (address phase). */
    sim::Cycle busRequestOccupancy() const { return busCyclesPerBeat; }
    /** Bus occupancy of transferring @p bytes of data. */
    sim::Cycle
    busDataOccupancy(std::uint32_t bytes) const
    {
        std::uint32_t beats =
            (bytes + busBytesPerBeat - 1) / busBytesPerBeat;
        return beats * busCyclesPerBeat;
    }

    // ------------------------------------------------------------------
    // Memory round-trip path components (see file comment).
    sim::Cycle reqPathCycles = 48;   //!< L2 miss -> request at controller
    sim::Cycle respPathCycles = 64;  //!< controller -> L2 fill complete

    // ------------------------------------------------------------------
    // DRAM organization: dual channel, 2 B @ 800 MHz each (3.2 GB/s).
    std::uint32_t dramChannels = 2;
    std::uint32_t dramBanksPerChannel = 8;
    std::uint32_t dramRowBytes = 4096;
    sim::Cycle bankRowHitCycles = 32;    //!< full-line access, open row
    sim::Cycle bankRowMissCycles = 67;   //!< full-line access, closed row
    sim::Cycle channelXferCycles = 64;   //!< 64 B over 1.6 GB/s channel

    // Half-line (32 B) accesses issued by the memory processor for its
    // correlation table traffic.
    sim::Cycle tableBankRowHitCycles = 19;
    sim::Cycle tableBankRowMissCycles = 54;
    sim::Cycle tableChannelXferCycles = 32;  //!< 32 B over main channel

    // ------------------------------------------------------------------
    // Memory processor.
    MemProcPlacement placement = MemProcPlacement::InDram;
    std::uint32_t memProcIssueWidth = 2;     //!< 2-issue, 800 MHz
    CacheGeometry memProcL1 = {32 * 1024, 2, 32};
    sim::Cycle memProcL1HitRtMemCycles = 4;  //!< in mem-proc cycles
    /** Fixed wire/controller overhead of a table access. */
    sim::Cycle tableAccessFixedDram = 2;          //!< inside DRAM chip
    sim::Cycle tableAccessFixedNorthBridge = 14;  //!< MC <-> DRAM paths
    /** Extra delay for a prefetch request to reach DRAM from the NB. */
    sim::Cycle prefetchInjectDelay = 25;

    // ------------------------------------------------------------------
    // Queue and filter structures (Fig. 3).
    std::uint32_t queueDepth = 16;     //!< depth of queues 1 through 6
    std::uint32_t filterEntries = 32;  //!< FIFO prefetch filter

    /** Every field, named once (sim/fields.hh). */
    template <class V>
    static constexpr void
    forEachField(V &&v)
    {
        v("issueWidth", &TimingParams::issueWidth);
        v("maxPendingLoads", &TimingParams::maxPendingLoads);
        v("maxPendingStores", &TimingParams::maxPendingStores);
        v("robSize", &TimingParams::robSize);
        v("l1", &TimingParams::l1);
        v("l2", &TimingParams::l2);
        v("streamNumSeq", &TimingParams::streamNumSeq);
        v("streamNumPref", &TimingParams::streamNumPref);
        v("l1HitRt", &TimingParams::l1HitRt);
        v("l2HitRt", &TimingParams::l2HitRt);
        v("l2Mshrs", &TimingParams::l2Mshrs);
        v("busCyclesPerBeat", &TimingParams::busCyclesPerBeat);
        v("busBytesPerBeat", &TimingParams::busBytesPerBeat);
        v("reqPathCycles", &TimingParams::reqPathCycles);
        v("respPathCycles", &TimingParams::respPathCycles);
        v("dramChannels", &TimingParams::dramChannels);
        v("dramBanksPerChannel", &TimingParams::dramBanksPerChannel);
        v("dramRowBytes", &TimingParams::dramRowBytes);
        v("bankRowHitCycles", &TimingParams::bankRowHitCycles);
        v("bankRowMissCycles", &TimingParams::bankRowMissCycles);
        v("channelXferCycles", &TimingParams::channelXferCycles);
        v("tableBankRowHitCycles", &TimingParams::tableBankRowHitCycles);
        v("tableBankRowMissCycles", &TimingParams::tableBankRowMissCycles);
        v("tableChannelXferCycles", &TimingParams::tableChannelXferCycles);
        v("placement", &TimingParams::placement);
        v("memProcIssueWidth", &TimingParams::memProcIssueWidth);
        v("memProcL1", &TimingParams::memProcL1);
        v("memProcL1HitRtMemCycles", &TimingParams::memProcL1HitRtMemCycles);
        v("tableAccessFixedDram", &TimingParams::tableAccessFixedDram);
        v("tableAccessFixedNorthBridge",
          &TimingParams::tableAccessFixedNorthBridge);
        v("prefetchInjectDelay", &TimingParams::prefetchInjectDelay);
        v("queueDepth", &TimingParams::queueDepth);
        v("filterEntries", &TimingParams::filterEntries);
    }

    /** Contention-free memory RT from the processor (row hit). */
    sim::Cycle
    memRowHitRt() const
    {
        return reqPathCycles + bankRowHitCycles + channelXferCycles +
               respPathCycles;
    }

    /** Contention-free memory RT from the processor (row miss). */
    sim::Cycle
    memRowMissRt() const
    {
        return reqPathCycles + bankRowMissCycles + channelXferCycles +
               respPathCycles;
    }
};

} // namespace mem

#endif // MEM_TIMING_PARAMS_HH
