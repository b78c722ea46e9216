#include "check/invariant_checker.hh"

#include <string>
#include <utility>

namespace check {

InvariantChecker::InvariantChecker(const CheckOptions &opts,
                                   sim::EventQueue &eq,
                                   mem::MemorySystem &ms,
                                   cpu::Hierarchy &hier,
                                   core::UlmtEngine *engine)
    : InvariantChecker(
          opts, eq, ms, std::vector<cpu::Hierarchy *>{&hier},
          engine ? std::vector<core::UlmtEngine *>{engine}
                 : std::vector<core::UlmtEngine *>{})
{
}

InvariantChecker::InvariantChecker(
    const CheckOptions &opts, sim::EventQueue &eq,
    mem::MemorySystem &ms, std::vector<cpu::Hierarchy *> hiers,
    std::vector<core::UlmtEngine *> engines)
    : opts_(opts), eq_(eq), ms_(ms), hiers_(std::move(hiers)),
      engines_(std::move(engines))
{
}

InvariantChecker::~InvariantChecker()
{
    if (!installed_)
        return;
    eq_.clearInspector();
    for (cpu::Hierarchy *h : hiers_) {
        h->l1().setShadow(nullptr);
        h->l2().setShadow(nullptr);
    }
    for (core::UlmtEngine *e : engines_) {
        e->mpCache().setShadow(nullptr);
        e->setMissHook(nullptr);
    }
    if (tcacheRef_)
        ms_.tableCache().setShadow(nullptr);
}

void
InvariantChecker::install()
{
    eq_.setInspector(opts_.everyEvents, [this] { runChecks(); });
    installed_ = true;
    if (!opts_.deep())
        return;

    const bool multi = hiers_.size() > 1;
    for (std::size_t c = 0; c < hiers_.size(); ++c) {
        const std::string p =
            multi ? "cpu." + std::to_string(c) + "." : "";
        l1Refs_.push_back(
            std::make_unique<RefLruCache>(hiers_[c]->l1(), p + "l1"));
        l2Refs_.push_back(
            std::make_unique<RefLruCache>(hiers_[c]->l2(), p + "l2"));
        hiers_[c]->l1().setShadow(l1Refs_[c].get());
        hiers_[c]->l2().setShadow(l2Refs_[c].get());
    }
    for (core::UlmtEngine *e : engines_) {
        const std::string p =
            engines_.size() > 1
                ? "ulmt." + std::to_string(e->engineId()) + "."
                : "";
        mpRefs_.push_back(std::make_unique<RefLruCache>(
            e->mpCache(), p + "mp_cache"));
        e->mpCache().setShadow(mpRefs_.back().get());
    }
    // The pair-table oracle understands the plain Base/Chain access
    // pattern of one table fed by one observation stream; sharded or
    // per-core configurations (and wrapped algorithms: Seq*,
    // composites, Repl) keep the structural walks only.
    if (engines_.size() == 1 && engines_[0]->numShards() == 1) {
        core::UlmtEngine *e = engines_[0];
        core::CorrelationPrefetcher &algo = e->algorithm();
        if (auto *base = dynamic_cast<core::BasePrefetcher *>(&algo))
            pairRef_ = std::make_unique<RefPairTable>(base->table(), 0);
        else if (auto *chain =
                     dynamic_cast<core::ChainPrefetcher *>(&algo))
            pairRef_ = std::make_unique<RefPairTable>(chain->table(),
                                                      chain->levels());
        if (pairRef_) {
            e->setMissHook([this](sim::Addr miss_line) {
                pairRef_->observeMiss(miss_line);
            });
        }
    }
    if (ms_.tableCache().enabled()) {
        tcacheRef_ = std::make_unique<RefTableCache>(ms_.tableCache());
        ms_.tableCache().setShadow(tcacheRef_.get());
    }
    resyncDeep();
}

void
InvariantChecker::resyncDeep()
{
    for (std::size_t c = 0; c < l1Refs_.size(); ++c) {
        l1Refs_[c]->resync(hiers_[c]->l1());
        l2Refs_[c]->resync(hiers_[c]->l2());
    }
    for (std::size_t i = 0; i < mpRefs_.size(); ++i)
        mpRefs_[i]->resync(engines_[i]->mpCache());
    if (tcacheRef_)
        tcacheRef_->resync(ms_.tableCache());
    if (pairRef_) {
        core::CorrelationPrefetcher &algo = engines_[0]->algorithm();
        if (auto *base = dynamic_cast<core::BasePrefetcher *>(&algo))
            pairRef_->resync(base->table(), base->learner());
        else if (auto *chain =
                     dynamic_cast<core::ChainPrefetcher *>(&algo))
            pairRef_->resync(chain->table(), chain->learner());
    }
}

void
InvariantChecker::runChecks()
{
    CheckContext ctx;
    ms_.checkInvariants(ctx, eq_.saveEvents());
    for (cpu::Hierarchy *h : hiers_)
        h->checkInvariants(ctx);
    for (core::UlmtEngine *e : engines_)
        e->checkInvariants(ctx);

    if (opts_.deep()) {
        for (std::size_t c = 0; c < l1Refs_.size(); ++c) {
            l1Refs_[c]->diff(hiers_[c]->l1(), ctx);
            l2Refs_[c]->diff(hiers_[c]->l2(), ctx);
        }
        for (std::size_t i = 0; i < mpRefs_.size(); ++i)
            mpRefs_[i]->diff(engines_[i]->mpCache(), ctx);
        if (tcacheRef_)
            tcacheRef_->diff(ms_.tableCache(), ctx);
        if (pairRef_) {
            core::CorrelationPrefetcher &algo =
                engines_[0]->algorithm();
            if (auto *base =
                    dynamic_cast<core::BasePrefetcher *>(&algo))
                pairRef_->diff(base->table(), ctx);
            else if (auto *chain =
                         dynamic_cast<core::ChainPrefetcher *>(&algo))
                pairRef_->diff(chain->table(), ctx);
        }
    }

    ++passes_;
    ctx.throwIfFailed(
        "invariant check failed at cycle " +
        std::to_string(eq_.now()) + " after " +
        std::to_string(eq_.executed()) + " events");
}

void
InvariantChecker::registerStats(sim::StatRegistry &reg) const
{
    const sim::StatRegistry::PassiveScope passive(reg);
    reg.addCounter("check.passes", &passes_);
}

} // namespace check
