#include "mem/table_cache.hh"

#include <algorithm>

namespace mem {

void
TableCache::configure(const TableCacheSpec &spec,
                      std::uint32_t line_bytes,
                      std::uint32_t dram_row_bytes)
{
    SIM_ASSERT(spec.on(), "table cache configured with zero entries");
    SIM_ASSERT(numSets_ == 0, "table cache configured twice");
    SIM_ASSERT(spec.assoc > 0, "table cache: zero associativity");
    SIM_ASSERT(spec.entries % spec.assoc == 0,
               "table cache: %u entries not divisible by assoc %u",
               spec.entries, spec.assoc);
    SIM_ASSERT(line_bytes > 0, "table cache: zero line size");
    SIM_ASSERT(dram_row_bytes >= line_bytes,
               "table cache: DRAM row smaller than a line");
    lineBytes_ = line_bytes;
    rowBytes_ = dram_row_bytes;
    assoc_ = spec.assoc;
    numSets_ = spec.entries / spec.assoc;
    lines_.assign(static_cast<std::size_t>(numSets_) * assoc_,
                  TableCacheLine{});
    dirtyBuf_.clear();
    dirtyBuf_.reserve(tableCacheDirtyBufEntries + 1);
}

std::uint32_t
TableCache::setIndex(sim::Addr line_addr) const
{
    return static_cast<std::uint32_t>((line_addr / lineBytes_) %
                                      numSets_);
}

sim::Addr
TableCache::lineAddr(sim::Addr addr) const
{
    return addr - addr % lineBytes_;
}

TableCacheLine *
TableCache::find(sim::Addr line_addr)
{
    TableCacheLine *base =
        &lines_[std::size_t(setIndex(line_addr)) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == line_addr)
            return &base[w];
    }
    return nullptr;
}

bool
TableCache::access(sim::Addr addr, bool is_write,
                   std::vector<sim::Addr> &writebacks)
{
    SIM_ASSERT(enabled(), "access on a disabled table cache");
    const sim::Addr line = lineAddr(addr);
    if (shadow_)
        shadow_->onAccess(line, is_write);

    if (TableCacheLine *hit = find(line)) {
        ++stats_.hits;
        hit->lruStamp = ++stampCounter_;
        hit->dirty = hit->dirty || is_write;
        return true;
    }

    // A line sitting in the dirty buffer has not reached DRAM yet; a
    // new access to it pulls it back in (still dirty) without any
    // DRAM traffic, exactly like an MSHR-style merge.
    const auto buffered =
        std::find(dirtyBuf_.begin(), dirtyBuf_.end(), line);
    if (buffered != dirtyBuf_.end()) {
        dirtyBuf_.erase(buffered);
        ++stats_.hits;
        install(line, /*dirty=*/true, writebacks);
        return true;
    }

    ++stats_.misses;
    ++stats_.dramAccesses;
    install(line, /*dirty=*/is_write, writebacks);
    return false;
}

void
TableCache::install(sim::Addr line_addr, bool dirty,
                    std::vector<sim::Addr> &writebacks)
{
    TableCacheLine *base =
        &lines_[std::size_t(setIndex(line_addr)) * assoc_];
    TableCacheLine *victim = &base[0];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        TableCacheLine *cand = &base[w];
        if (!cand->valid) {
            victim = cand;
            break;
        }
        if (cand->lruStamp < victim->lruStamp)
            victim = cand;
    }
    if (victim->valid && victim->dirty)
        pushDirty(victim->tag, writebacks);
    victim->tag = line_addr;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lruStamp = ++stampCounter_;
}

void
TableCache::pushDirty(sim::Addr line_addr,
                      std::vector<sim::Addr> &writebacks)
{
    dirtyBuf_.push_back(line_addr);
    // High water is recorded after the push so the overflow instant
    // (capacity + 1, the state that forces a drain) is visible.
    stats_.dirtyBufHighWater =
        std::max(stats_.dirtyBufHighWater,
                 static_cast<std::uint64_t>(dirtyBuf_.size()));
    if (dirtyBuf_.size() > tableCacheDirtyBufEntries)
        drainRow(dirtyBuf_.front() / rowBytes_, writebacks);
}

void
TableCache::drainRow(sim::Addr row, std::vector<sim::Addr> &writebacks)
{
    std::uint64_t batch = 0;
    for (std::size_t i = 0; i < dirtyBuf_.size();) {
        if (dirtyBuf_[i] / rowBytes_ == row) {
            writebacks.push_back(dirtyBuf_[i]);
            dirtyBuf_.erase(dirtyBuf_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            ++batch;
        } else {
            ++i;
        }
    }
    stats_.writebacks += batch;
    stats_.dramAccesses += batch;
    if (batch > 0)
        stats_.rowBatchedWritebacks += batch - 1;
}

void
TableCache::flushLine(TableCacheLine &line,
                      std::vector<sim::Addr> &writebacks)
{
    if (line.dirty) {
        writebacks.push_back(line.tag);
        ++stats_.writebacks;
        ++stats_.dramAccesses;
    }
    line.valid = false;
}

void
TableCache::invalidateRange(sim::Addr lo, sim::Addr hi,
                            std::vector<sim::Addr> &writebacks)
{
    if (!enabled() || lo >= hi)
        return;
    if (shadow_)
        shadow_->onInvalidateRange(lo, hi);
    // Tags are line addresses, so only the n lines first, first +
    // lineBytes_, ..., last can match, and line i of them lives in set
    // (setIndex(first) + i) % numSets_.  With n < numSets_ those sets
    // are distinct, so one find() per line replaces the full walk.
    // Write-backs leave in tag-array index order either way: the lines
    // from i = wrap on wrapped past the last set into the lowest sets,
    // so they are probed first.
    const sim::Addr last = lineAddr(hi - 1);
    if (last >= lo) {
        const sim::Addr n = (last - lo) / lineBytes_ + 1;
        if (n >= numSets_) {
            for (TableCacheLine &line : lines_) {
                if (line.valid && line.tag >= lo && line.tag < hi)
                    flushLine(line, writebacks);
            }
        } else {
            const sim::Addr first = last - (n - 1) * lineBytes_;
            const sim::Addr wrap =
                std::min<sim::Addr>(n, numSets_ - setIndex(first));
            for (sim::Addr j = 0; j < n; ++j) {
                const sim::Addr i = (j + wrap) % n;
                if (TableCacheLine *line = find(first + i * lineBytes_))
                    flushLine(*line, writebacks);
            }
        }
    }
    for (std::size_t i = 0; i < dirtyBuf_.size();) {
        if (dirtyBuf_[i] >= lo && dirtyBuf_[i] < hi) {
            writebacks.push_back(dirtyBuf_[i]);
            ++stats_.writebacks;
            ++stats_.dramAccesses;
            dirtyBuf_.erase(dirtyBuf_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

void
TableCache::reset()
{
    for (auto &line : lines_)
        line = TableCacheLine{};
    dirtyBuf_.clear();
    stampCounter_ = 0;
    stats_ = TableCacheStats{};
    if (shadow_)
        shadow_->onReset();
}

void
TableCache::registerStats(sim::StatRegistry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(prefix + "hits", &stats_.hits);
    reg.addCounter(prefix + "misses", &stats_.misses);
    reg.addCounter(prefix + "writebacks", &stats_.writebacks);
    reg.addCounter(prefix + "row_batched_writebacks",
                   &stats_.rowBatchedWritebacks);
    reg.addCounter(prefix + "dirty_buf_high_water",
                   &stats_.dirtyBufHighWater);
    reg.addCounter(prefix + "dram_accesses", &stats_.dramAccesses);
}

void
TableCache::saveState(ckpt::StateWriter &w) const
{
    // Geometry guard: sets * assoc * lineBytes pins the shape.
    w.u32(numSets_);
    w.u32(assoc_);
    w.u32(lineBytes_);
    w.u32(rowBytes_);
    w.u64(stampCounter_);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    w.u64(stats_.writebacks);
    w.u64(stats_.rowBatchedWritebacks);
    w.u64(stats_.dirtyBufHighWater);
    w.u64(stats_.dramAccesses);

    std::uint64_t valid = 0;
    for (const TableCacheLine &line : lines_)
        valid += line.valid ? 1 : 0;
    w.u64(valid);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const TableCacheLine &line = lines_[i];
        if (!line.valid)
            continue;
        w.u64(i);
        w.u64(line.tag);
        w.b(line.dirty);
        w.u64(line.lruStamp);
    }

    w.u64(dirtyBuf_.size());
    for (sim::Addr addr : dirtyBuf_)
        w.u64(addr);
}

void
TableCache::restoreState(ckpt::StateReader &r)
{
    if (r.u32() != numSets_ || r.u32() != assoc_ ||
        r.u32() != lineBytes_ || r.u32() != rowBytes_)
        throw ckpt::CkptError(
            "table cache: checkpoint geometry does not match this "
            "--table-cache configuration");
    for (auto &line : lines_)
        line = TableCacheLine{};
    dirtyBuf_.clear();
    stampCounter_ = r.u64();
    stats_.hits = r.u64();
    stats_.misses = r.u64();
    stats_.writebacks = r.u64();
    stats_.rowBatchedWritebacks = r.u64();
    stats_.dirtyBufHighWater = r.u64();
    stats_.dramAccesses = r.u64();

    const std::uint64_t valid = r.u64();
    for (std::uint64_t n = 0; n < valid; ++n) {
        const std::uint64_t i = r.u64();
        if (i >= lines_.size())
            throw ckpt::CkptError(
                "table cache: line index out of range");
        TableCacheLine &line = lines_[i];
        line.valid = true;
        line.tag = r.u64();
        // invalidateRange() probes a line only in the set its tag maps
        // to, so a misplaced line would outlive its invalidation.
        if (lineAddr(line.tag) != line.tag ||
            setIndex(line.tag) != i / assoc_)
            throw ckpt::CkptError(
                "table cache: line tag does not map to its set");
        line.dirty = r.b();
        line.lruStamp = r.u64();
    }

    const std::uint64_t buffered = r.u64();
    if (buffered > tableCacheDirtyBufEntries)
        throw ckpt::CkptError(
            "table cache: dirty buffer beyond capacity");
    for (std::uint64_t n = 0; n < buffered; ++n)
        dirtyBuf_.push_back(r.u64());
}

void
TableCache::checkInvariants(check::CheckContext &ctx) const
{
    const std::string who = "memsys.tcache";
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        const TableCacheLine *base =
            &lines_[std::size_t(set) * assoc_];
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const TableCacheLine &line = base[w];
            if (!line.valid)
                continue;
            ctx.require(lineAddr(line.tag) == line.tag, who,
                        "set " + std::to_string(set) + " way " +
                            std::to_string(w) + " tag " +
                            check::hex(line.tag) +
                            " is not line-aligned");
            ctx.require(setIndex(line.tag) == set, who,
                        "tag " + check::hex(line.tag) +
                            " resident in set " + std::to_string(set) +
                            " but maps to set " +
                            std::to_string(setIndex(line.tag)));
            ctx.require(line.lruStamp <= stampCounter_, who,
                        "tag " + check::hex(line.tag) +
                            " carries LRU stamp " +
                            std::to_string(line.lruStamp) +
                            " beyond the counter " +
                            std::to_string(stampCounter_));
            for (std::uint32_t v = w + 1; v < assoc_; ++v) {
                ctx.require(!base[v].valid || base[v].tag != line.tag,
                            who,
                            "duplicate tag " + check::hex(line.tag) +
                                " in set " + std::to_string(set));
            }
        }
    }
    ctx.require(dirtyBuf_.size() <= tableCacheDirtyBufEntries, who,
                "dirty buffer holds " +
                    std::to_string(dirtyBuf_.size()) +
                    " lines, beyond its capacity of " +
                    std::to_string(tableCacheDirtyBufEntries));
    for (std::size_t i = 0; i < dirtyBuf_.size(); ++i) {
        const sim::Addr addr = dirtyBuf_[i];
        ctx.require(lineAddr(addr) == addr, who,
                    "buffered write-back " + check::hex(addr) +
                        " is not line-aligned");
        ctx.require(
            const_cast<TableCache *>(this)->find(addr) == nullptr, who,
            "buffered write-back " + check::hex(addr) +
                " is also resident in the tag array");
        for (std::size_t j = i + 1; j < dirtyBuf_.size(); ++j) {
            ctx.require(dirtyBuf_[j] != addr, who,
                        "duplicate write-back " + check::hex(addr) +
                            " in the dirty buffer");
        }
    }
    ctx.require(stats_.dramAccesses ==
                    stats_.misses + stats_.writebacks,
                who,
                "write-back conservation violated: " +
                    std::to_string(stats_.dramAccesses) +
                    " DRAM accesses != " +
                    std::to_string(stats_.misses) + " misses + " +
                    std::to_string(stats_.writebacks) +
                    " writebacks");
}

} // namespace mem
