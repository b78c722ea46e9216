/**
 * @file
 * The simulator-wide statistic registry.
 *
 * Every component registers its counters, sample statistics,
 * histograms and computed gauges under a dotted path
 * ("l2.mshr.stolen", "ulmt.response_cycles", "memsys.queue3.drops"),
 * giving one uniform namespace over statistics that previously lived
 * in per-component structs.  Registration stores *pointers* into the
 * component's live stats -- there is no double bookkeeping and no
 * per-update cost; the registry is only walked when somebody asks.
 *
 * Consumers traverse the registry through StatVisitor; the single
 * built-in visitor renders everything as one JSON object (used by
 * `tools/ulmt-stats dump` and available to any embedder).  Names are
 * visited in byte order so dumps are stable across registration order.
 *
 * The owner of a passive entry -- observability a checkpoint does not
 * carry -- registers it inside a PassiveScope; leaves() copies out
 * every other entry, and the result fingerprint compares those.
 */

#ifndef SIM_STAT_REGISTRY_HH
#define SIM_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/stats.hh"

namespace sim {

/** Visitor over every registered statistic, one call per entry. */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void counter(const std::string &name,
                         std::uint64_t value) = 0;
    virtual void gauge(const std::string &name, double value) = 0;
    virtual void sampleStat(const std::string &name,
                            const SampleStat &s) = 0;
    virtual void histogram(const std::string &name,
                           const BinnedHistogram &h) = 0;
};

/** One non-passive registry entry, copied out by value. */
struct StatLeaf
{
    std::string name;
    /** Exact text: counters in decimal, doubles in hex float, samples
     *  as (count,sum,min,max), histograms as bin and below counts. */
    std::string value;
};

/** Registry of named statistics; one per simulated System. */
class StatRegistry
{
  public:
    /** While alive, entries registered on @p reg are passive: dumped,
     *  but left out of leaves(). */
    class PassiveScope
    {
      public:
        explicit PassiveScope(StatRegistry &reg) : reg_(reg)
        {
            reg_.passive_ = true;
        }
        ~PassiveScope() { reg_.passive_ = false; }
        PassiveScope(const PassiveScope &) = delete;
        PassiveScope &operator=(const PassiveScope &) = delete;

      private:
        StatRegistry &reg_;
    };

    /**
     * Register a monotonically updated counter.  @p value must outlive
     * the registry.
     * @throws std::invalid_argument on an empty or duplicate name.
     */
    void addCounter(const std::string &name,
                    const std::uint64_t *value);

    /** Register a computed value, re-evaluated at each visit. */
    void addGauge(const std::string &name,
                  std::function<double()> fn);

    /** Register a running sample statistic. */
    void addSample(const std::string &name, const SampleStat *s);

    /** Register a binned histogram. */
    void addHistogram(const std::string &name,
                      const BinnedHistogram *h);

    bool has(const std::string &name) const
    {
        return names_.count(name) != 0;
    }

    std::size_t size() const { return entries_.size(); }

    /** Walk every entry in byte order of the dotted names. */
    void visit(StatVisitor &v) const;

    /** Walk only the entries whose name @p keep accepts. */
    void
    visit(StatVisitor &v,
          const std::function<bool(const std::string &)> &keep) const;

    /** Every non-passive entry, in byte order of the names. */
    std::vector<StatLeaf> leaves() const;

    /**
     * The JSON dump visitor: one object keyed by dotted path.
     * Counters and gauges render as numbers; samples as
     * {count,sum,min,max,mean,stddev}; histograms as
     * {edges,counts,total,below,p50,p95} (the below-range count is
     * part of the dump, not silently dropped).
     */
    std::string dumpJson() const;

    /** The JSON dump restricted to names @p keep accepts (the backing
     *  of `ulmt-stats --core=<id>` / `--filter=<glob>`). */
    std::string
    dumpJson(const std::function<bool(const std::string &)> &keep) const;

  private:
    enum class Kind { Counter, Gauge, Sample, Histogram };

    struct Entry
    {
        std::string name;
        Kind kind;
        bool passive = false;
        const std::uint64_t *counter = nullptr;
        std::function<double()> gauge;
        const SampleStat *sample = nullptr;
        const BinnedHistogram *hist = nullptr;
    };

    void insert(Entry e);

    /** The entries @p keep accepts, in byte order of the names. */
    std::vector<const Entry *>
    sorted(const std::function<bool(const Entry &)> &keep) const;

    std::vector<Entry> entries_;
    std::unordered_set<std::string> names_;
    /** Set while a PassiveScope is alive. */
    bool passive_ = false;
};

} // namespace sim

#endif // SIM_STAT_REGISTRY_HH
