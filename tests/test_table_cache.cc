/**
 * @file
 * Tests for the memory-side correlation-table cache (MSCache,
 * DESIGN.md section 14): hit/miss/LRU policy, the dirty write-back
 * buffer with row-batched drains, range invalidation on page remaps
 * (its set probes against the full walk, on seeded streams), the
 * RefTableCache lockstep oracle, end-to-end deep checking,
 * checkpoint round-trips, and the old-version / missing-section
 * restore guards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "check/ref_models.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/state.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/system.hh"
#include "mem/table_cache.hh"
#include "sim/random.hh"
#include "workloads/workload.hh"

namespace check {

/** Test-only corruption backdoor (friend of mem::TableCache). */
struct CheckTestPeer
{
    static mem::TableCacheLine &
    line(mem::TableCache &c, std::uint32_t set, std::uint32_t way)
    {
        return c.lines_[set * c.assoc_ + way];
    }

    static std::vector<sim::Addr> &
    dirtyBuf(mem::TableCache &c)
    {
        return c.dirtyBuf_;
    }
};

} // namespace check

namespace {

using check::CheckTestPeer;

constexpr std::uint32_t kLine = 32;
constexpr std::uint32_t kRow = 256;  // 8 lines per DRAM row

/** A small cache: 4 sets x 2 ways at the test geometry. */
mem::TableCache
smallCache(std::uint32_t entries = 8, std::uint32_t assoc = 2)
{
    mem::TableCacheSpec spec;
    spec.entries = entries;
    spec.assoc = assoc;
    mem::TableCache c;
    c.configure(spec, kLine, kRow);
    return c;
}

/** The address of line @p n within set @p set of a 4-set cache. */
sim::Addr
setAddr(std::uint32_t set, std::uint32_t n)
{
    return (static_cast<sim::Addr>(n) * 4 + set) * kLine;
}

// ====================================================================
// Policy unit tests
// ====================================================================

TEST(TableCacheUnit, DisabledByDefaultAndSpecOn)
{
    mem::TableCacheSpec spec;
    EXPECT_FALSE(spec.on());
    spec.entries = 256;
    EXPECT_TRUE(spec.on());

    mem::TableCache c;
    EXPECT_FALSE(c.enabled());
    const mem::TableCache &sc = smallCache();
    EXPECT_TRUE(sc.enabled());
    EXPECT_EQ(sc.numSets(), 4u);
    EXPECT_EQ(sc.assoc(), 2u);
    EXPECT_EQ(sc.lineBytes(), kLine);
    EXPECT_EQ(sc.rowBytes(), kRow);
}

TEST(TableCacheUnit, MissFillsThenHits)
{
    mem::TableCache c = smallCache();
    std::vector<sim::Addr> wbs;
    EXPECT_FALSE(c.access(0x40, false, wbs));
    EXPECT_TRUE(wbs.empty());
    EXPECT_TRUE(c.access(0x40, false, wbs));
    EXPECT_TRUE(c.access(0x47, true, wbs));  // same line, sub-line addr
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().dramAccesses, 1u);
}

TEST(TableCacheUnit, LruEvictsLeastRecentWithinTheSet)
{
    mem::TableCache c = smallCache();  // 2 ways per set
    std::vector<sim::Addr> wbs;
    c.access(setAddr(0, 0), false, wbs);
    c.access(setAddr(0, 1), false, wbs);
    c.access(setAddr(0, 0), false, wbs);  // line 0 now most recent
    c.access(setAddr(0, 2), false, wbs);  // evicts line 1
    EXPECT_TRUE(c.access(setAddr(0, 0), false, wbs));
    EXPECT_FALSE(c.access(setAddr(0, 1), false, wbs));
}

TEST(TableCacheUnit, CleanEvictionsProduceNoWritebacks)
{
    mem::TableCache c = smallCache();
    std::vector<sim::Addr> wbs;
    for (std::uint32_t n = 0; n < 8; ++n)
        c.access(setAddr(0, n), false, wbs);  // reads thrash set 0
    EXPECT_TRUE(wbs.empty());
    EXPECT_EQ(c.stats().writebacks, 0u);
    EXPECT_EQ(c.stats().dramAccesses, c.stats().misses);
}

TEST(TableCacheUnit, DirtyBufferReaccessMergesAsHit)
{
    mem::TableCache c = smallCache();
    std::vector<sim::Addr> wbs;
    c.access(setAddr(0, 0), true, wbs);   // dirty
    c.access(setAddr(0, 1), false, wbs);
    c.access(setAddr(0, 2), false, wbs);  // evicts dirty line 0 -> buf
    ASSERT_EQ(c.dirtyBuffer().size(), 1u);
    EXPECT_EQ(c.dirtyBuffer()[0], setAddr(0, 0));

    // Touching the buffered line pulls it back without DRAM traffic:
    // an MSHR-style merge, counted as a hit, still dirty.
    const std::uint64_t dram_before = c.stats().dramAccesses;
    EXPECT_TRUE(c.access(setAddr(0, 0), false, wbs));
    EXPECT_TRUE(c.dirtyBuffer().empty());
    EXPECT_EQ(c.stats().dramAccesses, dram_before);
    EXPECT_TRUE(wbs.empty());

    // ... and evicting it again re-buffers it (the dirty bit stuck).
    c.access(setAddr(0, 3), false, wbs);
    c.access(setAddr(0, 4), false, wbs);
    EXPECT_EQ(c.dirtyBuffer().size(), 1u);
}

TEST(TableCacheUnit, OverflowDrainsTheOldestEntrysWholeRow)
{
    // 16 entries x 1 way: every access maps to its own set, so dirty
    // evictions are easy to script.
    mem::TableCache c = smallCache(16, 1);
    std::vector<sim::Addr> wbs;

    // Dirty lines 0..8 of row 0 (addresses 0,0x20,..,0x100), then
    // evict each by touching its set-conflicting alias (+16 lines).
    for (std::uint32_t n = 0; n <= mem::tableCacheDirtyBufEntries;
         ++n) {
        c.access(n * kLine, true, wbs);
        c.access((n + 16) * kLine, false, wbs);
    }
    // The 9th buffered line overflowed the 8-entry buffer; the drain
    // retires every buffered line of the oldest entry's DRAM row in
    // one burst.  Lines 0..7 share row 0; line 8 starts row 1.
    ASSERT_EQ(wbs.size(), 8u);
    for (std::uint32_t n = 0; n < 8; ++n)
        EXPECT_EQ(wbs[n], n * kLine);  // FIFO order within the burst
    EXPECT_EQ(c.dirtyBuffer().size(), 1u);
    EXPECT_EQ(c.dirtyBuffer()[0], 8u * kLine);

    EXPECT_EQ(c.stats().writebacks, 8u);
    EXPECT_EQ(c.stats().rowBatchedWritebacks, 7u);
    EXPECT_EQ(c.stats().dirtyBufHighWater,
              mem::tableCacheDirtyBufEntries + 1u);
    EXPECT_EQ(c.stats().dramAccesses,
              c.stats().misses + c.stats().writebacks);
}

TEST(TableCacheUnit, InvalidateRangeFlushesDirtyAndDropsClean)
{
    mem::TableCache c = smallCache();
    std::vector<sim::Addr> wbs;
    c.access(0x00, true, wbs);   // dirty, in range
    c.access(0x20, false, wbs);  // clean, in range
    c.access(0x40, true, wbs);   // dirty, out of range

    wbs.clear();
    c.invalidateRange(0x00, 0x40, wbs);
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_EQ(wbs[0], 0x00u);
    EXPECT_EQ(c.stats().writebacks, 1u);

    // The in-range lines are gone; the out-of-range dirty survived.
    EXPECT_FALSE(c.access(0x00, false, wbs));
    EXPECT_FALSE(c.access(0x20, false, wbs));
    EXPECT_TRUE(c.access(0x40, false, wbs));
}

TEST(TableCacheUnit, InvalidateRangeCoversTheDirtyBuffer)
{
    mem::TableCache c = smallCache();
    std::vector<sim::Addr> wbs;
    c.access(setAddr(0, 0), true, wbs);
    c.access(setAddr(0, 1), false, wbs);
    c.access(setAddr(0, 2), false, wbs);  // line 0 now buffered dirty
    ASSERT_EQ(c.dirtyBuffer().size(), 1u);

    wbs.clear();
    c.invalidateRange(setAddr(0, 0), setAddr(0, 0) + kLine, wbs);
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_EQ(wbs[0], setAddr(0, 0));
    EXPECT_TRUE(c.dirtyBuffer().empty());
    EXPECT_EQ(c.stats().dramAccesses,
              c.stats().misses + c.stats().writebacks);
}

TEST(TableCacheUnit, InvariantsHoldAfterMixedTraffic)
{
    mem::TableCache c = smallCache(16, 4);
    std::vector<sim::Addr> wbs;
    for (std::uint32_t i = 0; i < 200; ++i)
        c.access((i * 7919u % 64u) * kLine, (i % 3) == 0, wbs);
    c.invalidateRange(0x100, 0x300, wbs);
    check::CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("table cache");
    EXPECT_EQ(c.stats().dramAccesses,
              c.stats().misses + c.stats().writebacks);
}

// ====================================================================
// Range invalidation: set probes against the full walk
// ====================================================================

/** The tag array in index (set, way) order. */
std::vector<mem::TableCacheLine>
tagArray(const mem::TableCache &c)
{
    std::vector<mem::TableCacheLine> out;
    c.forEachLine([&](std::uint32_t, std::uint32_t,
                      const mem::TableCacheLine &l) { out.push_back(l); });
    return out;
}

bool
inRange(sim::Addr a, sim::Addr lo, sim::Addr hi)
{
    return a >= lo && a < hi;
}

/**
 * Invalidates [@p lo, @p hi) and checks it against the full walk,
 * derived from the state beforehand: the write-backs are the valid
 * in-range dirty lines in index order, then the in-range buffered
 * lines oldest first; in-range lines end invalid while every other
 * line and buffered entry is untouched; only the write-back counters
 * move, by exactly the write-backs.  Returns the write-backs.
 */
std::vector<sim::Addr>
invalidateLikeFullWalk(mem::TableCache &c, sim::Addr lo, sim::Addr hi)
{
    const std::vector<mem::TableCacheLine> before = tagArray(c);
    const mem::TableCacheStats st = c.stats();
    std::vector<sim::Addr> want, buf_want;
    for (const mem::TableCacheLine &l : before) {
        if (l.valid && l.dirty && inRange(l.tag, lo, hi))
            want.push_back(l.tag);
    }
    for (sim::Addr a : c.dirtyBuffer())
        (inRange(a, lo, hi) ? want : buf_want).push_back(a);

    constexpr sim::Addr kMarker = 0xdead;  // appended to, never cleared
    std::vector<sim::Addr> got = {kMarker};
    c.invalidateRange(lo, hi, got);
    EXPECT_EQ(got.front(), kMarker);
    got.erase(got.begin());
    EXPECT_EQ(got, want) << "writebacks of [" << lo << ", " << hi << ")";

    const std::vector<mem::TableCacheLine> after = tagArray(c);
    for (std::size_t i = 0; i < before.size(); ++i) {
        const mem::TableCacheLine &a = before[i];
        const mem::TableCacheLine &b = after[i];
        if (a.valid && inRange(a.tag, lo, hi)) {
            EXPECT_FALSE(b.valid) << "line " << i << " tag " << a.tag
                                  << " survived [" << lo << ", " << hi
                                  << ")";
        } else {
            EXPECT_TRUE(a.valid == b.valid &&
                        (!a.valid || (a.tag == b.tag &&
                                      a.dirty == b.dirty &&
                                      a.lruStamp == b.lruStamp)))
                << "line " << i << " outside [" << lo << ", " << hi
                << ") changed";
        }
    }
    EXPECT_EQ(c.dirtyBuffer(), buf_want);
    EXPECT_EQ(c.stats().hits, st.hits);
    EXPECT_EQ(c.stats().misses, st.misses);
    EXPECT_EQ(c.stats().writebacks, st.writebacks + want.size());
    EXPECT_EQ(c.stats().dramAccesses, st.dramAccesses + want.size());
    EXPECT_EQ(c.stats().dramAccesses,
              c.stats().misses + c.stats().writebacks);
    check::CheckContext ctx;
    c.checkInvariants(ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("table cache");
    return got;
}

/** Line @p i of the address space (set i % numSets). */
constexpr sim::Addr
lineAt(std::uint64_t i)
{
    return i * kLine;
}

/** 8 sets x 2 ways with lines [0, n) written in address order, so
 *  each set holds its lower line in way 0 and its higher in way 1. */
mem::TableCache
dirtyEightSets(std::uint64_t n = 16)
{
    mem::TableCache c = smallCache(16, 2);
    std::vector<sim::Addr> wbs;
    for (std::uint64_t i = 0; i < n; ++i)
        c.access(lineAt(i), true, wbs);
    return c;
}

TEST(TableCacheInvalidate, WrapPastTheLastSetKeepsIndexOrder)
{
    // Lines 6..9 map to sets 6, 7, 0, 1: the wrapped lines 8 and 9
    // sit in the lowest sets, so they leave first.
    mem::TableCache c = dirtyEightSets(10);
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(6), lineAt(10)),
              (std::vector<sim::Addr>{lineAt(8), lineAt(9), lineAt(6),
                                      lineAt(7)}));
}

TEST(TableCacheInvalidate, UnalignedBoundsCoverTheLinesStartingInside)
{
    mem::TableCache c = dirtyEightSets(8);
    // Line 2 starts below lo; line 5 starts below hi.
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(2) + 1, lineAt(5) + 1),
              (std::vector<sim::Addr>{lineAt(3), lineAt(4), lineAt(5)}));
    // An aligned hi excludes the line starting there.
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(1), lineAt(2)),
              std::vector<sim::Addr>{lineAt(1)});
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(6) - 1, lineAt(7) - 1),
              std::vector<sim::Addr>{lineAt(6)});
}

TEST(TableCacheInvalidate, EmptyRangesTouchNothing)
{
    mem::TableCache c = dirtyEightSets();
    const std::vector<sim::Addr> none;
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(3), lineAt(3)), none);
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(5), lineAt(3)), none);
    // Non-empty, but no line starts inside it.
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(3) + 1, lineAt(4)), none);
}

TEST(TableCacheInvalidate, BothSidesOfTheFullWalkFallback)
{
    // numSets - 1 and fewer lines are probed, numSets and more walk
    // the array; with 9 lines two share a set, and way order (lower
    // address first) differs from the probe's wrap order.
    for (std::uint64_t n : {7u, 8u, 9u, 15u, 16u}) {
        for (std::uint64_t start = 0; start < 8; ++start) {
            mem::TableCache c = dirtyEightSets();
            const std::vector<sim::Addr> got = invalidateLikeFullWalk(
                c, lineAt(start), lineAt(start + n));
            EXPECT_EQ(got.size(), std::min<std::uint64_t>(n, 16 - start))
                << n << " lines from set " << start;
        }
    }
}

TEST(TableCacheInvalidate, RangeHittingOnlyTheDirtyBuffer)
{
    mem::TableCache c = smallCache(16, 2);
    std::vector<sim::Addr> wbs;
    c.access(lineAt(0), true, wbs);
    c.access(lineAt(8), false, wbs);
    c.access(lineAt(16), false, wbs);  // evicts dirty line 0
    ASSERT_EQ(c.dirtyBuffer(), std::vector<sim::Addr>{lineAt(0)});
    EXPECT_EQ(invalidateLikeFullWalk(c, lineAt(0), lineAt(1)),
              std::vector<sim::Addr>{lineAt(0)});
    EXPECT_TRUE(c.dirtyBuffer().empty());
}

/**
 * Seeded access/invalidate streams over one geometry: ranges of every
 * length class around the fallback, unaligned, empty or wrapping.
 * Returns how many invalidations wrote resident lines back out of
 * address order (a wrapped range: the order-sensitive case).
 */
std::uint64_t
runInvalidateDifferential(std::uint32_t entries, std::uint32_t assoc,
                          std::uint64_t seed, std::size_t steps)
{
    mem::TableCache c = smallCache(entries, assoc);
    const std::uint64_t sets = c.numSets();
    const std::uint64_t span = 2 * std::uint64_t(entries);  // lines
    const sim::Addr base = lineAt(8 * span);
    sim::Rng rng(seed);
    std::vector<sim::Addr> wbs;
    std::uint64_t out_of_order = 0;
    for (std::size_t step = 0; step < steps; ++step) {
        if (!rng.chance(0.05)) {
            c.access(base + lineAt(rng.below(span)) + rng.below(kLine),
                     rng.chance(0.5), wbs);
            continue;
        }
        std::uint64_t lines = 0;
        switch (rng.below(5)) {
          case 0: lines = rng.below(4); break;  // a table row
          case 1: lines = 1 + rng.below(sets); break;
          case 2: lines = sets - 1 + rng.below(3); break;
          case 3: lines = sets + rng.below(span); break;
          default: lines = rng.below(8 * span); break;
        }
        // Half of the ranges start in the last few sets, so short
        // ones wrap too.
        std::uint64_t first = rng.below(span);
        if (rng.chance(0.5))
            first = first - first % sets + sets - 1 -
                    rng.below(std::min<std::uint64_t>(sets, 4));
        sim::Addr lo = base + lineAt(first);
        sim::Addr hi = lo + lineAt(lines);
        if (rng.chance(0.3))
            lo += rng.below(kLine);
        if (rng.chance(0.3))
            hi += rng.below(kLine);
        if (rng.chance(0.05))
            std::swap(lo, hi);
        const auto buffered = std::count_if(
            c.dirtyBuffer().begin(), c.dirtyBuffer().end(),
            [&](sim::Addr a) { return inRange(a, lo, hi); });
        const std::vector<sim::Addr> got =
            invalidateLikeFullWalk(c, lo, hi);
        if (::testing::Test::HasFailure())
            return out_of_order;
        out_of_order += !std::is_sorted(got.begin(), got.end() - buffered);
    }
    return out_of_order;
}

TEST(TableCacheInvalidate, RandomStreamsMatchTheFullWalk)
{
    struct Geometry
    {
        std::uint32_t entries, assoc;
    };
    for (const Geometry g : {Geometry{16, 4}, Geometry{256, 4},
                             Geometry{4096, 8}}) {
        std::uint64_t out_of_order = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            out_of_order += runInvalidateDifferential(
                g.entries, g.assoc, seed, 20000);
            ASSERT_FALSE(HasFailure())
                << g.entries << "x" << g.assoc << " seed " << seed;
        }
        EXPECT_GT(out_of_order, 0u) << g.entries << "x" << g.assoc;
    }
}

// ====================================================================
// Save / restore
// ====================================================================

TEST(TableCacheCkpt, SaveRestoreRoundTripsBitIdentically)
{
    mem::TableCache a = smallCache(16, 4);
    std::vector<sim::Addr> wbs;
    for (std::uint32_t i = 0; i < 100; ++i)
        a.access((i * 13u % 48u) * kLine, (i % 2) == 0, wbs);
    ASSERT_FALSE(a.dirtyBuffer().empty());  // buffer state matters

    ckpt::StateWriter w;
    a.saveState(w);
    ckpt::StateReader r(w.buffer());
    mem::TableCache b = smallCache(16, 4);
    b.restoreState(r);

    // Identical contents...
    std::vector<std::string> la, lb;
    a.forEachLine([&](std::uint32_t set, std::uint32_t way,
                      const mem::TableCacheLine &l) {
        la.push_back(std::to_string(set) + ":" + std::to_string(way) +
                     ":" + std::to_string(l.tag) + ":" +
                     std::to_string(l.dirty) + ":" +
                     std::to_string(l.lruStamp));
    });
    b.forEachLine([&](std::uint32_t set, std::uint32_t way,
                      const mem::TableCacheLine &l) {
        lb.push_back(std::to_string(set) + ":" + std::to_string(way) +
                     ":" + std::to_string(l.tag) + ":" +
                     std::to_string(l.dirty) + ":" +
                     std::to_string(l.lruStamp));
    });
    EXPECT_EQ(la, lb);
    EXPECT_EQ(a.dirtyBuffer(), b.dirtyBuffer());
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().dirtyBufHighWater, b.stats().dirtyBufHighWater);

    // ... and identical behaviour from here on.
    std::vector<sim::Addr> wa, wb2;
    for (std::uint32_t i = 0; i < 50; ++i) {
        const sim::Addr addr = (i * 5u % 48u) * kLine;
        EXPECT_EQ(a.access(addr, (i % 2) == 1, wa),
                  b.access(addr, (i % 2) == 1, wb2));
    }
    EXPECT_EQ(wa, wb2);
}

TEST(TableCacheCkpt, RestoreRejectsGeometryMismatch)
{
    mem::TableCache a = smallCache(16, 4);
    ckpt::StateWriter w;
    a.saveState(w);

    mem::TableCache b = smallCache(8, 2);
    ckpt::StateReader r(w.buffer());
    try {
        b.restoreState(r);
        FAIL() << "geometry mismatch restored";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("geometry"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TableCacheCkpt, RestoreRejectsALineOutsideItsSet)
{
    // invalidateRange() only probes the set a tag maps to, so a
    // snapshot may not place a line anywhere else.
    for (sim::Addr bad : {setAddr(1, 0), setAddr(0, 0) + 1}) {
        mem::TableCache a = smallCache();
        std::vector<sim::Addr> wbs;
        a.access(setAddr(0, 0), true, wbs);
        CheckTestPeer::line(a, 0, 0).tag = bad;
        ckpt::StateWriter w;
        a.saveState(w);
        mem::TableCache b = smallCache();
        ckpt::StateReader r(w.buffer());
        EXPECT_THROW(b.restoreState(r), ckpt::CkptError) << bad;
    }
}

// ====================================================================
// RefTableCache lockstep oracle
// ====================================================================

TEST(RefTableCacheOracle, LockstepStaysInAgreement)
{
    mem::TableCache c = smallCache(16, 2);
    check::RefTableCache ref(c);
    c.setShadow(&ref);

    std::vector<sim::Addr> wbs;
    for (std::uint32_t i = 0; i < 300; ++i)
        c.access((i * 31u % 80u) * kLine, (i % 4) != 0, wbs);
    c.invalidateRange(0x200, 0x500, wbs);
    for (std::uint32_t i = 0; i < 50; ++i)
        c.access((i * 11u % 80u) * kLine, false, wbs);

    check::CheckContext ctx;
    ref.diff(c, ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("tcache lockstep");
    c.setShadow(nullptr);
}

TEST(RefTableCacheOracle, DetectsSeededDirtyBitCorruption)
{
    mem::TableCache c = smallCache(16, 2);
    check::RefTableCache ref(c);
    c.setShadow(&ref);
    std::vector<sim::Addr> wbs;
    for (std::uint32_t i = 0; i < 40; ++i)
        c.access(i * kLine, true, wbs);

    // Find a resident line and flip its dirty bit behind the oracle.
    bool flipped = false;
    for (std::uint32_t set = 0; set < c.numSets() && !flipped; ++set) {
        for (std::uint32_t way = 0; way < c.assoc(); ++way) {
            mem::TableCacheLine &l = CheckTestPeer::line(c, set, way);
            if (l.valid && l.dirty) {
                l.dirty = false;
                flipped = true;
                break;
            }
        }
    }
    ASSERT_TRUE(flipped);
    check::CheckContext ctx;
    ref.diff(c, ctx);
    EXPECT_FALSE(ctx.ok());
    c.setShadow(nullptr);
}

TEST(RefTableCacheOracle, DetectsSeededBufferCorruption)
{
    mem::TableCache c = smallCache(8, 2);
    check::RefTableCache ref(c);
    c.setShadow(&ref);
    std::vector<sim::Addr> wbs;
    c.access(setAddr(0, 0), true, wbs);
    c.access(setAddr(0, 1), false, wbs);
    c.access(setAddr(0, 2), false, wbs);
    ASSERT_FALSE(c.dirtyBuffer().empty());

    CheckTestPeer::dirtyBuf(c).pop_back();  // lose a pending line
    check::CheckContext ctx;
    ref.diff(c, ctx);
    EXPECT_FALSE(ctx.ok());
    c.setShadow(nullptr);
}

TEST(RefTableCacheOracle, ResyncAdoptsTheRealState)
{
    mem::TableCache c = smallCache(16, 2);
    std::vector<sim::Addr> wbs;
    for (std::uint32_t i = 0; i < 60; ++i)
        c.access((i * 3u % 40u) * kLine, (i % 2) == 0, wbs);

    // An oracle attached late knows nothing; resync adopts the cache
    // as ground truth, after which lockstep holds again.
    check::RefTableCache ref(c);
    ref.resync(c);
    check::CheckContext ctx;
    ref.diff(c, ctx);
    EXPECT_TRUE(ctx.ok()) << ctx.report("post-resync");

    c.setShadow(&ref);
    for (std::uint32_t i = 0; i < 60; ++i)
        c.access((i * 7u % 40u) * kLine, (i % 2) == 1, wbs);
    check::CheckContext ctx2;
    ref.diff(c, ctx2);
    EXPECT_TRUE(ctx2.ok()) << ctx2.report("post-resync lockstep");
    c.setShadow(nullptr);
}

// ====================================================================
// End-to-end System integration
// ====================================================================

driver::SystemConfig
tcacheConfig(std::uint32_t entries, std::uint32_t assoc)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.002;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    cfg.metricsInterval = 0;
    cfg.tableCache.entries = entries;
    cfg.tableCache.assoc = assoc;
    return cfg;
}

driver::RunResult
runMst(const driver::SystemConfig &cfg)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    return sys.run();
}

TEST(TableCacheEndToEnd, RunsAndReportsStats)
{
    const driver::RunResult r = runMst(tcacheConfig(256, 4));
    EXPECT_TRUE(r.tcacheOn);
    EXPECT_EQ(r.tcacheEntries, 256u);
    EXPECT_EQ(r.tcacheAssoc, 4u);
    EXPECT_GT(r.tcache.hits + r.tcache.misses, 0u);
    EXPECT_EQ(r.tcache.dramAccesses,
              r.tcache.misses + r.tcache.writebacks);
}

TEST(TableCacheEndToEnd, OffRegistersNoTcacheStats)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.001;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::SystemConfig cfg;
    cfg.metricsInterval = 0;
    driver::System sys(cfg, *wl);
    sys.run();
    EXPECT_FALSE(sys.statRegistry().has("memsys.tcache.hits"));

    auto wl2 = workloads::makeWorkload("MST", wp);
    driver::SystemConfig cfg2 = tcacheConfig(256, 4);
    driver::System sys2(cfg2, *wl2);
    sys2.run();
    EXPECT_TRUE(sys2.statRegistry().has("memsys.tcache.hits"));
}

TEST(TableCacheEndToEnd, DeepCheckingIsPassive)
{
    // The lockstep oracle must not perturb the simulation: identical
    // fingerprints with checking off and deep.
    driver::SystemConfig cfg = tcacheConfig(256, 4);
    const driver::RunResult off = runMst(cfg);
    cfg.check.mode = check::CheckMode::Deep;
    const driver::RunResult deep = runMst(cfg);
    EXPECT_EQ(driver::resultFingerprint(off),
              driver::resultFingerprint(deep));
}

TEST(TableCacheEndToEnd, RemapChurnStaysInLockstep)
{
    // Satellite: page remaps relocate table rows, so the cache's
    // lines for the migrated range must be invalidated.  Under deep
    // checking the oracle replays the same invalidations -- a missed
    // or mis-ranged flush diverges and throws.
    driver::SystemConfig cfg = tcacheConfig(1024, 4);
    cfg.vm.enabled = true;
    cfg.vm.remapRate = 500.0;
    cfg.check.mode = check::CheckMode::Deep;
    const driver::RunResult a = runMst(cfg);
    EXPECT_GT(a.vmRemaps, 0u);
    EXPECT_TRUE(a.tcacheOn);
    const driver::RunResult b = runMst(cfg);
    EXPECT_EQ(driver::resultFingerprint(a),
              driver::resultFingerprint(b));
}

// ====================================================================
// Checkpoint format v5
// ====================================================================

TEST(TableCacheCkptV5, CheckpointRestoreResumesBitIdentically)
{
    const std::string path = "test_tcache_resume.ulmtckp";
    driver::SystemConfig cfg = tcacheConfig(256, 4);
    workloads::WorkloadParams wp;
    wp.scale = 0.002;

    driver::RunResult full;
    {
        auto wl = workloads::makeWorkload("MST", wp);
        driver::System sys(cfg, *wl);
        sys.setCheckpointMeta("MST", wp.seed, wp.scale);
        sys.setCheckpointTrigger("500", path);
        full = sys.run();
        ASSERT_GT(full.ckptBytes, 0u);
    }
    ASSERT_GT(full.tcache.hits + full.tcache.misses, 0u);

    // The snapshot is v5 and carries the tcache section.
    const ckpt::CheckpointImage img =
        ckpt::CheckpointImage::readFile(path);
    EXPECT_EQ(img.header.version, ckpt::formatVersion);
    EXPECT_NE(img.findSection("tcache"), nullptr);

    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.restoreCheckpoint(path);
    const driver::RunResult resumed = sys.run();
    EXPECT_EQ(driver::resultFingerprint(full),
              driver::resultFingerprint(resumed));
    std::remove(path.c_str());
}

/** Snapshot a cache-off machine; returns the image for tampering. */
ckpt::CheckpointImage
offMachineImage(const std::string &path)
{
    driver::SystemConfig cfg = tcacheConfig(0, 4);
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    sys.setCheckpointMeta("MST", wp.seed, wp.scale);
    sys.setCheckpointTrigger("200", path);
    const driver::RunResult r = sys.run();
    EXPECT_GT(r.ckptBytes, 0u);
    return ckpt::CheckpointImage::readFile(path);
}

TEST(TableCacheCkptV5, MissingTcacheSectionRejectedWithClearMessage)
{
    const std::string path = "test_tcache_missing.ulmtckp";
    offMachineImage(path);

    // Restoring the cache-off snapshot into a cache-on machine must
    // name the real problem (no table-cache state), not the opaque
    // config fingerprint.
    driver::SystemConfig cfg = tcacheConfig(256, 4);
    workloads::WorkloadParams wp;
    wp.scale = 0.002;
    auto wl = workloads::makeWorkload("MST", wp);
    driver::System sys(cfg, *wl);
    try {
        sys.restoreCheckpoint(path);
        FAIL() << "sectionless restore into --table-cache machine";
    } catch (const ckpt::CkptError &e) {
        EXPECT_NE(std::string(e.what()).find("table-cache"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(TableCacheCkptV5, V4AndV5FilesAreRejectedNamingTheirVersion)
{
    // v6 fingerprints every visited config field, so no older file can
    // match one: the version is the reason to report, not the machine.
    const std::string path = "test_tcache_old.ulmtckp";
    ckpt::CheckpointImage img = offMachineImage(path);
    for (std::uint32_t version : {4u, 5u}) {
        img.header.version = version;
        img.writeFile(path);
        try {
            ckpt::CheckpointImage::readFile(path);
            FAIL() << "a v" << version << " file was accepted";
        } catch (const ckpt::CkptError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "unsupported format version " +
                          std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(TableCacheCkptV5, PreV4ContainersAreRejectedOutright)
{
    const std::string path = "test_tcache_v3.ulmtckp";
    ckpt::CheckpointImage img = offMachineImage(path);
    img.header.version = 3;
    img.writeFile(path);
    EXPECT_THROW(ckpt::CheckpointImage::readFile(path),
                 ckpt::CkptError);
    std::remove(path.c_str());
}

} // namespace
