/**
 * @file
 * Construction of ULMT algorithms by name (the customization hook of
 * Section 3.3.3: the programmer or system picks an algorithm and its
 * parameters per application).
 */

#ifndef CORE_FACTORY_HH
#define CORE_FACTORY_HH

#include <memory>
#include <string>

#include "core/correlation_prefetcher.hh"
#include "core/params.hh"

namespace core {

/** The ULMT algorithms evaluated in the paper (Table 4 + Table 5). */
enum class UlmtAlgo {
    None,      //!< no memory-side prefetching
    Base,
    Chain,
    Repl,
    Seq1,
    Seq4,
    Seq4Base,  //!< Figure 5 combination
    Seq4Repl,  //!< Figure 5 combination
    Seq1Repl,  //!< the CG customization (Table 5)
    Adaptive,  //!< extension: on-the-fly algorithm selection
    ReplCA,    //!< extension: Repl + conflict-aware push filtering
    Profile    //!< extension: observe-only profiling ULMT
};

/** Printable algorithm name. */
std::string to_string(UlmtAlgo algo);

/** Parse an algorithm name ("Base", "Repl", "Seq4+Repl", ...).
 *  @throws std::invalid_argument naming @p name when it is unknown. */
UlmtAlgo parseUlmtAlgo(const std::string &name);

/**
 * How the memory-side service is shared among --cores=N tenants
 * (single-core machines always behave as Shared).
 */
enum class UlmtMode : std::uint8_t {
    Shared,  //!< one ULMT + one table, serving all cores round-robin
    PerCore, //!< one ULMT and one table per core
    Sharded  //!< one ULMT, but the table is sharded by core id
};

/** Printable mode name ("shared", "percore", "sharded"). */
std::string to_string(UlmtMode mode);

/** Parse a serving-mode name.
 *  @throws std::invalid_argument naming @p name when it is unknown. */
UlmtMode parseUlmtMode(const std::string &name);

/** Full specification of a ULMT (algorithm + table geometry + mode). */
struct UlmtSpec
{
    UlmtAlgo algo = UlmtAlgo::None;
    /** Table rows, sized per application (Table 2). */
    std::uint32_t numRows = 128 * 1024;
    /** Levels of successors for Chain/Repl (Table 5 uses 4). */
    std::uint32_t numLevels = 3;
    /** Verbose mode: the ULMT also sees processor prefetches. */
    bool verbose = false;

    bool enabled() const { return algo != UlmtAlgo::None; }

    /** Every field, named once (sim/fields.hh). */
    template <class V>
    static constexpr void
    forEachField(V &&v)
    {
        v("algo", &UlmtSpec::algo);
        v("numRows", &UlmtSpec::numRows);
        v("numLevels", &UlmtSpec::numLevels);
        v("verbose", &UlmtSpec::verbose);
    }
};

/**
 * Build the algorithm described by @p spec with Table 4 parameter
 * defaults (Base: NumSucc=4/Assoc=4; Chain/Repl: NumSucc=2/Assoc=2;
 * Seq: NumSeq streams, NumPref=6).
 *
 * @param table_base simulated base address of the correlation table;
 *        0 keeps the CorrelationParams default.  Multicore sharded and
 *        per-core tables pass distinct bases so shards never alias in
 *        the memory processor's cache or the DRAM banks.
 */
std::unique_ptr<CorrelationPrefetcher>
makeAlgorithm(const UlmtSpec &spec, std::uint64_t table_base = 0);

/** Table base of shard @p shard (4 GB of table space per shard). */
constexpr std::uint64_t
shardTableBase(unsigned shard)
{
    return 0x40'0000'0000ULL +
           static_cast<std::uint64_t>(shard) * 0x1'0000'0000ULL;
}

} // namespace core

#endif // CORE_FACTORY_HH
