/**
 * @file
 * MSCache: a small SRAM cache in front of the correlation table's DRAM
 * traffic (DESIGN.md section 14).
 *
 * Every miss in the memory processor's L1 reaches the table through
 * MemorySystem::tableAccess().  With the table cache configured, that
 * choke point first probes this set-associative, write-allocate tag
 * array; only misses and write-backs reach the DRAM banks.  Dirty
 * victims drain through a small bounded buffer, and when the buffer
 * overflows every buffered line belonging to the same DRAM row as the
 * oldest entry is written back back-to-back, so the write burst rides
 * open-row hits instead of paying a row activation per line.
 *
 * The cache is a pure policy structure: it decides hits, victims and
 * drain batches, while MemorySystem performs the resulting DRAM
 * accesses and owns all timing.  Tags are full line addresses, so the
 * sharded ULMT mode's disjoint shardTableBase() regions can never
 * alias -- two shards' lines always differ in tag even when they map
 * to the same set.
 *
 * Disabled (entries == 0, the default) the cache is never probed and
 * the table path is bit-identical to the pre-cache simulator.
 */

#ifndef MEM_TABLE_CACHE_HH
#define MEM_TABLE_CACHE_HH

#include <cstdint>
#include <vector>

#include "check/check.hh"
#include "ckpt/state.hh"
#include "sim/logging.hh"
#include "sim/stat_registry.hh"
#include "sim/types.hh"

namespace mem {

/** Configuration of the table cache (--table-cache=<entries>,<assoc>). */
struct TableCacheSpec
{
    /** Total line entries; 0 (the default) disables the cache. */
    std::uint32_t entries = 0;
    /** Set associativity. */
    std::uint32_t assoc = 4;

    bool on() const { return entries != 0; }

    /** Every field, named once (sim/fields.hh). */
    template <class V>
    static constexpr void
    forEachField(V &&v)
    {
        v("entries", &TableCacheSpec::entries);
        v("assoc", &TableCacheSpec::assoc);
    }
};

/** Main cycles charged for a table-cache hit (SRAM, memory-side). */
inline constexpr sim::Cycle tableCacheHitCycles = 4;

/** Capacity of the dirty write-back buffer (evicted dirty lines). */
inline constexpr std::uint32_t tableCacheDirtyBufEntries = 8;

/**
 * Passive observer of the table cache's operation stream, used by the
 * deep checker's RefTableCache oracle.  Same contract as CacheShadow:
 * notifications fire synchronously from the mutating call and
 * implementations must not touch the cache back.
 */
class TableCacheShadow
{
  public:
    virtual ~TableCacheShadow() = default;
    /** One tableAccess() reached the cache (line-aligned address). */
    virtual void onAccess(sim::Addr line_addr, bool is_write) = 0;
    /** Lines in [lo, hi) were invalidated (dirty ones flushed). */
    virtual void onInvalidateRange(sim::Addr lo, sim::Addr hi) = 0;
    /** The whole array was cleared. */
    virtual void onReset() = 0;
};

/** Counters kept by the table cache ("memsys.tcache.*"). */
struct TableCacheStats
{
    std::uint64_t hits = 0;
    /** Misses that filled from DRAM (one DRAM read each). */
    std::uint64_t misses = 0;
    /** Dirty lines written back to DRAM (one DRAM write each). */
    std::uint64_t writebacks = 0;
    /** Write-backs that rode an already-open drain of the same DRAM
     *  row (batch size minus one, summed over drains). */
    std::uint64_t rowBatchedWritebacks = 0;
    /** Peak dirty-buffer occupancy (including the overflow instant
     *  that triggers a drain). */
    std::uint64_t dirtyBufHighWater = 0;
    /** Every DRAM table access the cache caused.  Conservation law:
     *  dramAccesses == misses + writebacks, always. */
    std::uint64_t dramAccesses = 0;
};

/** One entry of the table cache's tag array. */
struct TableCacheLine
{
    sim::Addr tag = 0;          //!< full line address
    bool valid = false;
    bool dirty = false;
    std::uint64_t lruStamp = 0; //!< larger = more recently used
};

/** The MSCache tag array, dirty buffer and drain policy. */
class TableCache
{
  public:
    TableCache() = default;

    /**
     * Size the array.  Must be called once, before any access and
     * before stats registration; a default-constructed cache stays
     * disabled.
     *
     * @param spec entries/assoc (spec.on() must hold)
     * @param line_bytes table line size (the memory processor's L1
     *        line: tableAccess() addresses arrive at that granularity)
     * @param dram_row_bytes DRAM row size; lines whose
     *        addr / dram_row_bytes match drain in one batch
     */
    void configure(const TableCacheSpec &spec, std::uint32_t line_bytes,
                   std::uint32_t dram_row_bytes);

    bool enabled() const { return numSets_ != 0; }
    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint32_t rowBytes() const { return rowBytes_; }
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }
    const TableCacheStats &stats() const { return stats_; }

    /**
     * One table access.  On a miss the caller must fetch the line from
     * DRAM (the cache already counted it); any addresses appended to
     * @p writebacks must each be written to DRAM, in order -- they are
     * dirty lines the access displaced out of the buffer.
     *
     * @return true on a hit (SRAM latency), false on a miss (DRAM).
     */
    bool access(sim::Addr addr, bool is_write,
                std::vector<sim::Addr> &writebacks);

    /**
     * Drop every cached line in [@p lo, @p hi) -- the page-remap hook:
     * relocated table rows must not be served from stale cache lines.
     * Dirty lines (resident or still in the dirty buffer) are flushed:
     * they are appended to @p writebacks for the caller to perform --
     * resident lines in tag-array index (set, way) order, then
     * buffered ones oldest first.  @p lo and @p hi need not be
     * line-aligned.
     *
     * Cost: a range of n line addresses probes the assoc() ways of
     * the n sets they map to; only when n >= numSets() does it walk
     * the whole array once.  Either way the dirty buffer is scanned.
     */
    void invalidateRange(sim::Addr lo, sim::Addr hi,
                         std::vector<sim::Addr> &writebacks);

    /** Invalidate everything, drop the buffer, zero the stats. */
    void reset();

    /** Attach/detach the deep checker's shadow (nullptr = off). */
    void setShadow(TableCacheShadow *shadow) { shadow_ = shadow; }

    /** Dirty-buffer contents in FIFO order (oldest first). */
    const std::vector<sim::Addr> &dirtyBuffer() const
    {
        return dirtyBuf_;
    }

    /** Read-only walk over every way: fn(set, way, line). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::uint32_t set = 0; set < numSets_; ++set) {
            for (std::uint32_t w = 0; w < assoc_; ++w)
                fn(set, w, lines_[std::size_t(set) * assoc_ + w]);
        }
    }

    /** Register the tcache.* counters under @p prefix. */
    void registerStats(sim::StatRegistry &reg,
                       const std::string &prefix = "memsys.tcache.")
        const;

    /**
     * Serialize stats, the LRU stamp counter, the valid lines (sparse)
     * and the dirty buffer.  Restore validates the geometry, so a
     * snapshot taken under a different --table-cache is rejected
     * before any line is touched.
     */
    void saveState(ckpt::StateWriter &w) const;
    void restoreState(ckpt::StateReader &r);

    /**
     * Invariants: every valid line's tag is line-aligned and maps to
     * its set, no set holds a tag twice, no LRU stamp exceeds the
     * counter, the dirty buffer is within capacity and never holds a
     * resident line or a duplicate, and the write-back conservation
     * law holds: dramAccesses == misses + writebacks.
     */
    void checkInvariants(check::CheckContext &ctx) const;

  private:
    friend struct check::CheckTestPeer;

    std::uint32_t setIndex(sim::Addr line_addr) const;
    sim::Addr lineAddr(sim::Addr addr) const;
    TableCacheLine *find(sim::Addr line_addr);
    /** Drop a valid line, writing it back if dirty. */
    void flushLine(TableCacheLine &line,
                   std::vector<sim::Addr> &writebacks);
    /** Install @p line_addr, spilling a dirty victim into the buffer
     *  (which may overflow into a row-batched drain). */
    void install(sim::Addr line_addr, bool dirty,
                 std::vector<sim::Addr> &writebacks);
    /** Buffer a dirty victim; on overflow drain the oldest entry's
     *  whole DRAM row. */
    void pushDirty(sim::Addr line_addr,
                   std::vector<sim::Addr> &writebacks);
    /** Write back every buffered line in @p row (addr / rowBytes_). */
    void drainRow(sim::Addr row, std::vector<sim::Addr> &writebacks);

    std::uint32_t lineBytes_ = 0;
    std::uint32_t rowBytes_ = 0;
    std::uint32_t numSets_ = 0;
    std::uint32_t assoc_ = 0;
    std::vector<TableCacheLine> lines_;
    /** Evicted dirty lines awaiting write-back, oldest first. */
    std::vector<sim::Addr> dirtyBuf_;
    std::uint64_t stampCounter_ = 0;
    TableCacheStats stats_;
    TableCacheShadow *shadow_ = nullptr;
};

} // namespace mem

#endif // MEM_TABLE_CACHE_HH
