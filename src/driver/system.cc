#include "driver/system.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

#include "ckpt/sim_state.hh"
#include "sim/logging.hh"

namespace driver {

namespace {

/** Safety valve: no run should need more events than this. */
constexpr std::uint64_t maxEvents = 4'000'000'000ULL;

/**
 * The config's check options, unless the config leaves checking off
 * and the ULMT_CHECK environment variable (1/basic/deep) asks for it
 * process-wide (the CI hook for a checker-enabled test pass).
 * @throws std::invalid_argument on a non-empty value other than 0/off.
 */
check::CheckOptions
effectiveCheckOptions(const SystemConfig &cfg)
{
    const char *env = std::getenv("ULMT_CHECK");
    const std::string v = env ? env : "";
    check::CheckMode mode = check::CheckMode::Off;
    if (v == "1" || v == "basic")
        mode = check::CheckMode::Basic;
    else if (v == "deep")
        mode = check::CheckMode::Deep;
    else if (!v.empty() && v != "0" && v != "off")
        throw std::invalid_argument(
            "bad ULMT_CHECK value '" + v +
            "' (expected 0, off, 1, basic or deep)");
    check::CheckOptions opts = cfg.check;
    if (!opts.enabled())
        opts.mode = mode;
    return opts;
}

/**
 * The config's audit flag, unless the ULMT_AUDIT environment variable
 * overrides it process-wide (0/off disables, 1/on enables) -- the same
 * escape hatch pattern as ULMT_CHECK, e.g. for an A/B passivity sweep
 * over an unmodified benchmark binary.
 * @throws std::invalid_argument on any other non-empty value.
 */
bool
effectiveAuditEnabled(const SystemConfig &cfg)
{
    const char *env = std::getenv("ULMT_AUDIT");
    const std::string v = env ? env : "";
    if (v == "0" || v == "off")
        return false;
    if (v == "1" || v == "on")
        return true;
    if (!v.empty())
        throw std::invalid_argument("bad ULMT_AUDIT value '" + v +
                                    "' (expected 0, off, 1 or on)");
    return cfg.audit;
}

/** Section name of core/engine @p i: instance 0 keeps the
 *  pre-multicore unsuffixed name. */
std::string
sectionName(const char *base, std::size_t i)
{
    return i ? base + std::to_string(i) : base;
}

} // namespace

System::System(const SystemConfig &cfg, workloads::Workload &workload)
    : System(cfg, workload, workload.name())
{
    workloadSource_ = workload.source();
    coreWorkloads_[0] = &workload;
    ckptApp_ = workload.name();
}

System::System(const SystemConfig &cfg, cpu::TraceSource &source,
               std::string name)
    : cfg_(cfg), workloadName_(std::move(name))
{
    if (cfg_.cores != 1) {
        throw std::invalid_argument(
            "System: a multicore machine needs one workload per core "
            "(use the vector-of-workloads constructor)");
    }
    sources_.push_back(&source);
    coreWorkloads_.assign(1, nullptr);
    init();
}

System::System(const SystemConfig &cfg,
               std::vector<std::unique_ptr<workloads::Workload>> workloads,
               std::string name)
    : cfg_(cfg), workloadName_(std::move(name))
{
    if (workloads.size() != cfg_.cores) {
        throw std::invalid_argument(
            "System: got " + std::to_string(workloads.size()) +
            " workloads for " + std::to_string(cfg_.cores) + " cores");
    }
    ownedWorkloads_ = std::move(workloads);
    for (auto &w : ownedWorkloads_) {
        sources_.push_back(w.get());
        coreWorkloads_.push_back(w.get());
    }
    workloadSource_ = ownedWorkloads_[0]->source();
    ckptApp_ = ownedWorkloads_[0]->name();
    init();
}

void
System::init()
{
    if (cfg_.cores < 1 || cfg_.cores > sim::maxCores) {
        throw std::invalid_argument(
            "System: cores must be in [1, " +
            std::to_string(sim::maxCores) + "]");
    }
    SIM_ASSERT(sources_.size() == cfg_.cores,
               "one trace source per core");

    ms_ = std::make_unique<mem::MemorySystem>(eq_, cfg_.timing);
    // Size the per-tenant QoS counters before registerStats() runs:
    // the registry keeps raw pointers into the vector.
    ms_->setNumCores(cfg_.cores);
    if (cfg_.tableCache.on())
        ms_->configureTableCache(cfg_.tableCache);

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        hiers_.push_back(std::make_unique<cpu::Hierarchy>(
            eq_, cfg_.timing, *ms_, cfg_.conven4, c));
    }
    ms_->setPushCallback(
        [this](sim::Cycle when, sim::Addr line, unsigned core) {
            hiers_[core]->acceptPush(when, line);
        });

    if (cfg_.vm.on()) {
        vm_ = std::make_unique<vm::Vm>(eq_, cfg_.vm, cfg_.cores);
        for (auto &h : hiers_)
            h->setVm(vm_.get());
        // The controller enforces the page-cross drop rule on pushes.
        ms_->setPageShift(vm_->pageShift());
        // A migration is an OS event: notify the ULMT (Sec 3.4) and
        // resync the checker's reference models, exactly as an
        // externally injected System::pageRemap would.
        vm_->setRemapCallback([this](sim::Addr old_page,
                                     sim::Addr new_page,
                                     std::uint32_t page_bytes) {
            pageRemap(old_page, new_page, page_bytes);
        });
    }

    if (cfg_.ulmt.enabled()) {
        using Shards =
            std::vector<std::unique_ptr<core::CorrelationPrefetcher>>;
        switch (cfg_.ulmtMode) {
          case core::UlmtMode::Shared: {
            // One thread, one table, every tenant round-robin.
            Shards shards;
            shards.push_back(core::makeAlgorithm(cfg_.ulmt));
            engines_.push_back(std::make_unique<core::UlmtEngine>(
                eq_, cfg_.timing, *ms_, std::move(shards), cfg_.cores,
                /*base_core=*/0, /*engine_id=*/0));
            ms_->setObserver(engines_[0].get(), cfg_.ulmt.verbose);
            break;
          }
          case core::UlmtMode::Sharded: {
            // One thread, one table shard per tenant (disjoint table
            // address ranges so shards never alias in DRAM).
            Shards shards;
            for (unsigned c = 0; c < cfg_.cores; ++c) {
                shards.push_back(core::makeAlgorithm(
                    cfg_.ulmt, core::shardTableBase(c)));
            }
            engines_.push_back(std::make_unique<core::UlmtEngine>(
                eq_, cfg_.timing, *ms_, std::move(shards), cfg_.cores,
                /*base_core=*/0, /*engine_id=*/0));
            ms_->setObserver(engines_[0].get(), cfg_.ulmt.verbose);
            break;
          }
          case core::UlmtMode::PerCore: {
            // One thread (and table) per tenant; each observes only
            // its own core's misses.
            for (unsigned c = 0; c < cfg_.cores; ++c) {
                Shards shards;
                shards.push_back(core::makeAlgorithm(
                    cfg_.ulmt, core::shardTableBase(c)));
                engines_.push_back(std::make_unique<core::UlmtEngine>(
                    eq_, cfg_.timing, *ms_, std::move(shards),
                    /*num_cores=*/1, /*base_core=*/c,
                    /*engine_id=*/c));
                ms_->setCoreObserver(c, engines_[c].get(),
                                     cfg_.ulmt.verbose);
            }
            break;
          }
        }
    }

    if (effectiveAuditEnabled(cfg_)) {
        audit_ = std::make_unique<mem::PrefetchAudit>(
            cfg_.cores,
            static_cast<unsigned>(std::max<std::size_t>(
                engines_.size(), 1)),
            ms_->dram().numBanks(), ms_->dram().numChannels());
        ms_->setAudit(audit_.get());
        for (auto &h : hiers_)
            h->setAudit(audit_.get());
    }

    if (cfg_.hwCorrSramBytes > 0) {
        if (cfg_.cores > 1) {
            throw std::invalid_argument(
                "the hardware correlation baseline is single-core "
                "only");
        }
        hwCorr_ = std::make_unique<HwCorrelationEngine>(
            *ms_, cfg_.hwCorrSramBytes, cfg_.hwCorrReplicated);
    }

    if (cfg_.recordMissStream || hwCorr_) {
        for (auto &h : hiers_) {
            h->onDemandL2Miss = [this](sim::Cycle when,
                                       sim::Addr line) {
                if (cfg_.recordMissStream)
                    missStream_.push_back(line);
                if (hwCorr_)
                    hwCorr_->observeMiss(when, line);
            };
        }
    }

    for (unsigned c = 0; c < cfg_.cores; ++c) {
        cpus_.push_back(std::make_unique<cpu::MainProcessor>(
            eq_, cfg_.timing, *hiers_[c], *sources_[c], c));
    }

    const check::CheckOptions chk = effectiveCheckOptions(cfg_);
    if (chk.enabled()) {
        std::vector<cpu::Hierarchy *> hs;
        for (auto &h : hiers_)
            hs.push_back(h.get());
        std::vector<core::UlmtEngine *> es;
        for (auto &e : engines_)
            es.push_back(e.get());
        checker_ = std::make_unique<check::InvariantChecker>(
            chk, eq_, *ms_, std::move(hs), std::move(es));
        checker_->install();
    }

    initObservability();
}

void
System::initObservability()
{
    // One dotted namespace over every component's counters.  A
    // multicore machine prefixes per-core components with "cpu.<c>."
    // and its engines with "ulmt.<id>."; single-core names are
    // unchanged.
    ms_->registerStats(registry_);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        const std::string p =
            cfg_.cores > 1 ? "cpu." + std::to_string(c) + "." : "";
        hiers_[c]->registerStats(registry_, p);
        cpus_[c]->registerStats(registry_, p);
    }
    for (auto &e : engines_) {
        const std::string p =
            engines_.size() > 1
                ? "ulmt." + std::to_string(e->engineId()) + "."
                : "ulmt.";
        e->registerStats(registry_, p);
    }
    if (checker_)
        checker_->registerStats(registry_);
    if (vm_)
        vm_->registerStats(registry_);
    if (audit_) {
        audit_->registerStats(registry_, [this](unsigned c) {
            return hiers_[c]->stats().nonPrefMisses;
        });
    }

    // Host-side checkpoint costs (0 until a save/restore happens).
    {
        const sim::StatRegistry::PassiveScope passive(registry_);
        registry_.addGauge("ckpt.save_seconds",
                           [this] { return ckptSaveSeconds_; });
        registry_.addGauge("ckpt.restore_seconds",
                           [this] { return ckptRestoreSeconds_; });
        registry_.addGauge("ckpt.snapshot_bytes",
                           [this] { return double(ckptBytes_); });
    }

    if (cfg_.metricsInterval == 0)
        return;

    // The sampled channels stay on core 0 / engine 0: the time series
    // is a dashboard of the machine's representative tenant, and the
    // per-core registries above carry the full breakdown.
    sampler_ = std::make_unique<sim::TimeSeriesSampler>(
        cfg_.metricsInterval);
    sampler_->addChannel("l2.mshr_occupancy", [this] {
        return double(hiers_[0]->mshrInUse(eq_.now()));
    });
    sampler_->addChannel("memsys.queue1_inflight", [this] {
        return double(ms_->inflightDemandCount() +
                      ms_->inflightCpuPrefetchCount());
    });
    sampler_->addChannel("memsys.queue3_inflight", [this] {
        return double(ms_->inflightPrefetchCount());
    });
    // Fraction of ULMT prefetch requests the Filter module caught.
    sampler_->addChannel("memsys.filter_hit_rate", [this] {
        const mem::PrefetchFilter &f = ms_->filter();
        const double total = double(f.admits() + f.drops());
        return total > 0.0 ? double(f.drops()) / total : 0.0;
    });
    sampler_->addChannel("bus.utilization", [this] {
        const sim::Cycle now = eq_.now();
        return now ? double(ms_->bus().busyTotal()) / double(now)
                   : 0.0;
    });
    sampler_->addChannel("dram.row_hit_rate", [this] {
        const mem::DramStats &d = ms_->dram().stats();
        return d.accesses ? double(d.rowHits) / double(d.accesses)
                          : 0.0;
    });
    if (cfg_.tableCache.on()) {
        sampler_->addChannel("memsys.tcache.hit_rate", [this] {
            const mem::TableCacheStats &t =
                ms_->tableCache().stats();
            const double total = double(t.hits + t.misses);
            return total > 0.0 ? double(t.hits) / total : 0.0;
        });
    }
    if (!engines_.empty()) {
        sampler_->addChannel("ulmt.queue2_depth", [this] {
            return double(engines_[0]->queue2Depth());
        });
        sampler_->addChannel("ulmt.table_bytes", [this] {
            double b = 0.0;
            for (std::size_t i = 0; i < engines_[0]->numShards(); ++i)
                b += double(engines_[0]->shard(i).tableBytes());
            return b;
        });
        sampler_->addChannel("ulmt.response_mean", [this] {
            return engines_[0]->stats().responseTime.mean();
        });
        sampler_->addChannel("ulmt.occupancy_mean", [this] {
            return engines_[0]->stats().occupancyTime.mean();
        });
    }
    if (audit_) {
        // Effectiveness time series: machine-wide outcome ratios plus
        // the cumulative interference charge.
        sampler_->addChannel("audit.coverage", [this] {
            std::uint64_t npm = 0;
            for (const auto &h : hiers_)
                npm += h->stats().nonPrefMisses;
            return audit_->totals().coverage(npm);
        });
        sampler_->addChannel("audit.accuracy", [this] {
            return audit_->totals().accuracy();
        });
        sampler_->addChannel("audit.timeliness", [this] {
            return audit_->totals().timeliness();
        });
        sampler_->addChannel("audit.blocked_cycles", [this] {
            return double(audit_->blockedTotal());
        });
    }

    // Passive ticker: the sampler only reads state, so timing and
    // executed-event counts are identical with sampling on or off.
    eq_.setTicker(cfg_.metricsInterval,
                  [this](sim::Cycle now) { sampler_->tick(now); });
}

void
System::setCheckpointMeta(std::string app_key, std::uint64_t seed,
                          double scale)
{
    ckptApp_ = std::move(app_key);
    ckptSeed_ = seed;
    ckptScale_ = scale;
}

void
System::setCheckpointTrigger(const std::string &spec, std::string path)
{
    if (spec.empty())
        throw ckpt::CkptError("empty checkpoint trigger");
    std::size_t end = 0;
    unsigned long long n = 0;
    try {
        n = std::stoull(spec, &end);
    } catch (const std::exception &) {
        throw ckpt::CkptError("bad checkpoint trigger '" + spec +
                              "' (expected '<N>' misses or '<N>c')");
    }
    if (end == spec.size()) {
        ckptTriggerMisses_ = n;
        ckptTriggerCycle_ = 0;
    } else if (end + 1 == spec.size() && spec[end] == 'c') {
        ckptTriggerCycle_ = n;
        ckptTriggerMisses_ = 0;
    } else {
        throw ckpt::CkptError("bad checkpoint trigger '" + spec +
                              "' (expected '<N>' misses or '<N>c')");
    }
    ckptPath_ = std::move(path);
}

std::uint64_t
configFingerprint(const SystemConfig &cfg, const std::string &workload)
{
    ckpt::StateWriter w;
    const auto put = [&w](const auto &v) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_floating_point_v<T>)
            w.f64(v);
        else if constexpr (std::is_same_v<T, std::string>)
            w.str(v);
        else  // integers, bools and enums
            w.u64(static_cast<std::uint64_t>(v));
    };
    sim::forEachLeafField(
        cfg, [&put](const auto &owner, const std::string &, auto member,
                    auto... options) {
            if constexpr (sim::isPassive<decltype(options)...>)
                return;
            else if constexpr (sizeof...(options) == 1)
                put((owner.*options)()...);
            else
                put(owner.*member);
        });
    w.str(workload);
    const std::string &buf = w.buffer();
    return ckpt::fnv1a64(buf.data(), buf.size());
}

sim::EventQueue::Action
System::resolveEvent(const sim::SavedEvent &s)
{
    switch (static_cast<sim::EventKind>(s.kind)) {
      case sim::EventKind::ProcStep:
        if (s.arg0 >= cpus_.size()) {
            throw ckpt::CkptError(
                "checkpoint step event names a core this machine "
                "does not have");
        }
        return cpus_[s.arg0]->stepAction();
      case sim::EventKind::MemDemandDone:
        return ms_->demandDoneAction(s.arg0);
      case sim::EventKind::MemCpuPfDone:
        return ms_->cpuPfDoneAction(s.arg0);
      case sim::EventKind::MemPfArrival:
        return ms_->prefetchArrivalAction(s.arg0, s.arg1);
      case sim::EventKind::UlmtProcess:
        if (s.arg0 >= engines_.size()) {
            throw ckpt::CkptError(
                "checkpoint has a pending ULMT event but this "
                "configuration has no matching engine");
        }
        return engines_[s.arg0]->processAction();
      case sim::EventKind::VmRemap:
        if (!vm_) {
            throw ckpt::CkptError(
                "checkpoint has a pending VM remap event but this "
                "machine has no VM layer");
        }
        return vm_->remapAction();
      default:
        throw ckpt::CkptError("unresolvable event kind in checkpoint");
    }
}

void
System::saveCheckpoint(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (hwCorr_) {
        throw ckpt::CkptError(
            "the hardware correlation baseline is not checkpointable");
    }

    ckpt::CheckpointImage img;
    img.header.configFingerprint = configFingerprint(cfg_, workloadName_);
    img.header.seed = ckptSeed_;
    img.header.scale = ckptScale_;
    img.header.cycle = eq_.now();
    std::uint64_t misses = 0;
    for (const auto &h : hiers_)
        misses += h->stats().l2Misses;
    img.header.misses = misses;
    img.header.cores = cfg_.cores;
    img.header.ulmtMode = static_cast<std::uint32_t>(cfg_.ulmtMode);
    img.header.vmPageBytes = vm_ ? vm_->pageBytes() : 0;
    img.header.workload = ckptApp_;
    img.header.label = cfg_.label;

    {
        ckpt::StateWriter w;
        w.u64(eq_.now());
        w.u64(eq_.nextSeq());
        w.u64(eq_.executed());
        const std::vector<sim::SavedEvent> evs = eq_.saveEvents();
        w.u64(evs.size());
        for (const sim::SavedEvent &e : evs) {
            if (e.kind ==
                static_cast<std::uint32_t>(sim::EventKind::Untagged)) {
                throw ckpt::CkptError(
                    "an untagged event is pending; the queue is not "
                    "checkpointable at this instant");
            }
            w.u64(e.when);
            w.u64(e.seq);
            w.u32(e.kind);
            w.u64(e.arg0);
            w.u64(e.arg1);
        }
        img.addSection("events", w.take());
    }
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
        ckpt::StateWriter w;
        cpus_[c]->saveState(w);
        img.addSection(sectionName("cpu", c), w.take());
    }
    for (std::size_t c = 0; c < hiers_.size(); ++c) {
        ckpt::StateWriter w;
        hiers_[c]->saveState(w);
        img.addSection(sectionName("hier", c), w.take());
    }
    {
        ckpt::StateWriter w;
        ms_->saveState(w);
        img.addSection("memsys", w.take());
    }
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        ckpt::StateWriter w;
        engines_[i]->saveState(w);
        img.addSection(sectionName("ulmt", i), w.take());
    }
    if (vm_) {
        ckpt::StateWriter w;
        vm_->saveState(w);
        img.addSection("vm", w.take());
    }
    if (cfg_.tableCache.on()) {
        ckpt::StateWriter w;
        ms_->tableCache().saveState(w);
        img.addSection("tcache", w.take());
    }
    {
        ckpt::StateWriter w;
        w.b(cfg_.recordMissStream);
        if (cfg_.recordMissStream) {
            w.u64(missStream_.size());
            for (sim::Addr a : missStream_)
                w.u64(a);
        }
        img.addSection("driver", w.take());
    }

    ckptBytes_ = img.writeFile(path);
    ckptSaveSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
}

void
System::restoreCheckpoint(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (hwCorr_) {
        throw ckpt::CkptError(
            "the hardware correlation baseline is not checkpointable");
    }
    for (workloads::Workload *w : coreWorkloads_) {
        if (!w) {
            throw ckpt::CkptError(
                "restore needs a rewindable workload (raw trace "
                "sources have no fast-forwardable cursor)");
        }
    }
    const ckpt::CheckpointImage img = ckpt::CheckpointImage::readFile(path);
    // The machine-shape checks come before the fingerprint check so a
    // cores or serving-mode mismatch is reported as exactly that.
    if (img.header.cores != cfg_.cores) {
        throw ckpt::CkptError(
            "checkpoint '" + path + "' was taken on a " +
            std::to_string(img.header.cores) + "-core machine, not " +
            std::to_string(cfg_.cores) + " cores");
    }
    if (img.header.ulmtMode !=
        static_cast<std::uint32_t>(cfg_.ulmtMode)) {
        throw ckpt::CkptError(
            "checkpoint '" + path +
            "' was taken under a different ULMT serving mode");
    }
    // VM page size is machine shape too: report a mismatch as such
    // before the opaque fingerprint comparison can mask it.
    const std::uint32_t my_page_bytes = vm_ ? vm_->pageBytes() : 0;
    if (img.header.vmPageBytes != my_page_bytes) {
        const auto shape = [](std::uint32_t pb) {
            return pb ? "VM with " + vm::pageSizeName(pb) + " pages"
                      : std::string("no VM layer");
        };
        throw ckpt::CkptError(
            "checkpoint '" + path + "' was taken with " +
            shape(img.header.vmPageBytes) + ", but this machine has " +
            shape(my_page_bytes));
    }
    // A cache-on machine needs the tcache section; report its absence
    // as the shape mismatch it is before the opaque fingerprint check.
    if (cfg_.tableCache.on() && !img.findSection("tcache")) {
        throw ckpt::CkptError(
            "checkpoint '" + path +
            "' has no table-cache section (taken with "
            "--table-cache=0); this machine runs --table-cache=" +
            std::to_string(cfg_.tableCache.entries) + "," +
            std::to_string(cfg_.tableCache.assoc) +
            " -- re-create the checkpoint with the same flag");
    }
    if (img.header.configFingerprint !=
        configFingerprint(cfg_, workloadName_)) {
        throw ckpt::CkptError(
            "checkpoint '" + path +
            "' was taken under a different machine configuration");
    }
    if (img.header.workload != ckptApp_) {
        throw ckpt::CkptError("checkpoint '" + path + "' is for workload '" +
                              img.header.workload + "', not '" + ckptApp_ +
                              "'");
    }

    for (std::size_t c = 0; c < cpus_.size(); ++c) {
        ckpt::StateReader r(img.section(sectionName("cpu", c)));
        cpus_[c]->restoreState(r);
        r.finish();
    }
    for (std::size_t c = 0; c < hiers_.size(); ++c) {
        ckpt::StateReader r(img.section(sectionName("hier", c)));
        hiers_[c]->restoreState(r);
        r.finish();
    }
    {
        ckpt::StateReader r(img.section("memsys"));
        ms_->restoreState(r);
        r.finish();
    }
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        ckpt::StateReader r(img.section(sectionName("ulmt", i)));
        engines_[i]->restoreState(r);
        r.finish();
    }
    if (vm_) {
        ckpt::StateReader r(img.section("vm"));
        vm_->restoreState(r);
        r.finish();
    }
    if (cfg_.tableCache.on()) {
        ckpt::StateReader r(img.section("tcache"));
        ms_->tableCache().restoreState(r);
        r.finish();
    }
    {
        ckpt::StateReader r(img.section("driver"));
        missStream_.clear();
        if (r.b()) {
            const std::uint64_t n = r.u64();
            for (std::uint64_t i = 0; i < n; ++i)
                missStream_.push_back(r.u64());
        }
        r.finish();
    }

    // Fast-forward each core's workload cursor: its processor has
    // consumed stats().records records (including the in-progress
    // one).
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
        coreWorkloads_[c]->reset();
        cpu::TraceRecord rec;
        for (std::uint64_t i = 0; i < cpus_[c]->stats().records; ++i) {
            if (!coreWorkloads_[c]->next(rec)) {
                throw ckpt::CkptError(
                    "workload ended before the checkpoint's trace "
                    "cursor");
            }
        }
    }

    // The event queue goes last: resolving closures needs the
    // components above in their restored state.
    {
        ckpt::StateReader r(img.section("events"));
        const sim::Cycle now = r.u64();
        const std::uint64_t next_seq = r.u64();
        const std::uint64_t executed = r.u64();
        const std::uint64_t count = r.u64();
        std::vector<sim::SavedEvent> evs;
        evs.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            sim::SavedEvent e;
            e.when = r.u64();
            e.seq = r.u64();
            e.kind = r.u32();
            e.arg0 = r.u64();
            e.arg1 = r.u64();
            if (e.kind == 0 ||
                e.kind > static_cast<std::uint32_t>(
                             sim::EventKind::VmRemap))
                throw ckpt::CkptError("corrupt event kind in checkpoint");
            evs.push_back(e);
        }
        r.finish();
        eq_.restoreEvents(now, next_seq, executed, evs,
                          [this](const sim::SavedEvent &s) {
                              return resolveEvent(s);
                          });
    }

    // The shadows saw none of the restored fills; rebuild them from
    // the real structures, then prove the restored state is sane.
    if (checker_) {
        checker_->resyncDeep();
        checker_->runChecks();
    }

    restored_ = true;
    ckptRestoreSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
}

void
System::setTraceEvents(sim::TraceEventBuffer *buf)
{
    trace_ = buf;
    ms_->setTrace(buf);
    for (auto &e : engines_)
        e->setTrace(buf);
    if (sampler_)
        sampler_->setTrace(buf);
    if (audit_)
        audit_->setTrace(buf);
}

RunResult
System::run()
{
    // After a restore the step events are already pending in the
    // queue; scheduling more would double-step the cores.
    if (!restored_) {
        for (auto &c : cpus_)
            c->start();
        if (vm_)
            vm_->start();
    }
    if (!ckptPath_.empty()) {
        if (ckptTriggerCycle_ > 0) {
            eq_.setBreakCheck([this](sim::Cycle now) {
                return now >= ckptTriggerCycle_;
            });
        } else {
            eq_.setBreakCheck([this](sim::Cycle) {
                std::uint64_t misses = 0;
                for (const auto &h : hiers_)
                    misses += h->stats().l2Misses;
                return misses >= ckptTriggerMisses_;
            });
        }
    }
    const auto wall_start = std::chrono::steady_clock::now();
    bool drained = eq_.run(maxEvents);
    while (!drained && eq_.breakHit()) {
        // The trigger fired between events: a consistent instant.
        // Snapshot, disarm, and carry on to completion.
        saveCheckpoint(ckptPath_);
        eq_.clearBreakCheck();
        drained = eq_.run(maxEvents);
    }
    const auto wall_end = std::chrono::steady_clock::now();
    bool finished = true;
    for (const auto &c : cpus_)
        finished = finished && c->finished();
    SIM_ASSERT(drained && finished,
               "simulation did not complete (event limit hit?)");
    if (checker_)
        checker_->runChecks();  // final end-of-run walk

    RunResult r;
    r.workload = workloadName_;
    r.label = cfg_.label;
    r.source = workloadSource_;
    r.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    r.eventsExecuted = eq_.executed();
    r.ckptSaveSeconds = ckptSaveSeconds_;
    r.ckptRestoreSeconds = ckptRestoreSeconds_;
    r.ckptBytes = ckptBytes_;

    // The scalar fields describe core 0 (the whole machine when
    // cores=1); cycles is the makespan and records the machine total.
    const cpu::ProcessorStats &ps = cpus_[0]->stats();
    r.busyCycles = ps.busyCycles;
    r.uptoL2Stall = ps.uptoL2Stall;
    r.beyondL2Stall = ps.beyondL2Stall;
    r.proc = ps;
    for (const auto &c : cpus_) {
        r.cycles = std::max(r.cycles, c->stats().totalCycles);
        r.records += c->stats().records;
    }

    r.hier = hiers_[0]->stats();
    if (!engines_.empty())
        r.ulmt = engines_[0]->stats();
    r.memsys = ms_->stats();
    r.dram = ms_->dram().stats();
    r.busBusyTotal = ms_->bus().busyTotal();
    r.busBusyPrefetch = ms_->bus().busyPrefetch();

    r.coreQos = ms_->coreQos();
    if (cfg_.cores > 1) {
        for (const auto &c : cpus_)
            r.coreProc.push_back(c->stats());
        for (const auto &h : hiers_)
            r.coreHier.push_back(h->stats());
        for (const auto &e : engines_)
            r.engineUlmt.push_back(e->stats());
    }

    const sim::BinnedHistogram &gaps = hiers_[0]->missGapHistogram();
    r.missGapFractions.resize(gaps.numBins());
    for (std::size_t i = 0; i < gaps.numBins(); ++i)
        r.missGapFractions[i] = gaps.binFraction(i);

    r.cores = cfg_.cores;
    r.ulmtMode = core::to_string(cfg_.ulmtMode);
    if (vm_) {
        r.vmOn = true;
        r.vmPageBytes = vm_->pageBytes();
        r.vmRemapRate = cfg_.vm.remapRate;
        r.vmRemaps = vm_->remaps();
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            const vm::VmCoreStats &vs = vm_->coreStats(c);
            r.vmTlbHits += vs.tlbHits;
            r.vmTlbMisses += vs.tlbMisses;
            r.vmWalkCycles += vs.walkCycles;
            r.vmPagesMapped += vm_->pagesMapped(c);
        }
    }
    if (cfg_.tableCache.on()) {
        r.tcacheOn = true;
        r.tcacheEntries = cfg_.tableCache.entries;
        r.tcacheAssoc = cfg_.tableCache.assoc;
        r.tcache = ms_->tableCache().stats();
    }
    if (audit_) {
        r.audit = audit_->report();
        // Fold in what the auditor cannot see on its own: the coverage
        // denominator and the CPU stream prefetcher's lifecycle, both
        // already counted by the hierarchies.
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            const cpu::HierarchyStats &hs = hiers_[c]->stats();
            mem::AuditCoreReport &cr = r.audit.cores[c];
            cr.coverage = cr.push.coverage(hs.nonPrefMisses);
            cr.cpuPfIssued = hs.cpuPfIssued;
            cr.cpuPfToMemory = hs.cpuPfToMemory;
            cr.cpuPfUsefulTimely = hs.cpuPfTimely;
            cr.cpuPfUsefulLate = hs.cpuPfUseful - hs.cpuPfTimely;
            cr.cpuPfReplaced = hs.cpuPfReplaced;
            cr.cpuPfDroppedPageCross = hs.cpuPfDroppedPageCross;
        }
    }

    r.missStream = std::move(missStream_);
    r.leaves = registry_.leaves();
    if (sampler_) {
        sampler_->flush(eq_.now());  // final end-of-run row
        r.metrics = sampler_->take();
    }
    return r;
}

void
System::pageRemap(sim::Addr old_page, sim::Addr new_page,
                  std::uint32_t page_bytes)
{
    for (auto &e : engines_)
        e->pageRemap(old_page, new_page, page_bytes);
    // A remap rewrites table tags in place; the pair-table oracle has
    // no notification stream for it, so rebuild from the real state.
    if (checker_)
        checker_->resyncDeep();
}

} // namespace driver
