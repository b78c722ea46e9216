/**
 * @file
 * On-disk checkpoint format primitives (ULMTCKP1).
 *
 * The container mirrors the ULMTTRC1 trace-format conventions from
 * src/trace/format.hh -- little-endian fixed-width container fields,
 * LEB128 varints inside section payloads, per-section FNV-1a checksums
 * and a chain-checksummed trailer -- but is deliberately self-contained
 * so that ckpt stays a leaf module: components that implement
 * saveState()/restoreState() include this header (and state.hh) and
 * nothing else, and the sim/ layer never depends on ckpt at all.
 *
 * Layout of a checkpoint file:
 *
 *   "ULMTCKP1"                          8-byte magic
 *   u32 version | u32 reserved
 *   u64 configFingerprint               must match the restoring config
 *   u64 seed | f64bits scale            workload construction inputs
 *   u64 cycle | u64 misses              snapshot point (informational)
 *   u32 cores | u32 ulmtMode            machine shape
 *   u32 vmPageBytes                     VM page size (0 = VM layer off)
 *   u32 len + bytes                     workload registry name
 *   u32 len + bytes                     config label
 *   sections:
 *     u32 "CSEC" | u32 nameLen | name
 *     u32 payloadBytes | u32 reserved | u64 fnv1a64(payload)
 *     payload
 *   trailer:
 *     u32 "CEND" | u32 sectionCount
 *     u64 totalPayloadBytes | u64 chainChecksum
 *
 * Validation is strict and loud: every section checksum is verified on
 * load and the trailer's totals and checksum chain are re-verified, so
 * a truncated or bit-flipped checkpoint is rejected with a CkptError
 * naming the file and the reason -- never a silently wrong restore.
 */

#ifndef CKPT_FORMAT_HH
#define CKPT_FORMAT_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ckpt {

/** Any malformed, truncated, corrupt or mismatched checkpoint. */
class CkptError : public std::runtime_error
{
  public:
    explicit CkptError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** 8-byte file magic; the '1' doubles as the major version. */
inline constexpr char fileMagic[8] = {'U', 'L', 'M', 'T',
                                      'C', 'K', 'P', '1'};

/** Bumped on any incompatible layout change.  Version 2: the memory
 *  system's state gained the CPU-prefetch in-flight map and its
 *  cross-match drop counter (queue-1 attribution split).  Version 3:
 *  multicore -- the header records the core count and ULMT serving
 *  mode, component sections exist per core, the ULMT state carries
 *  per-core sub-queues, and the memory system carries per-tenant QoS
 *  counters.  Version 4: virtual memory -- the header records the VM
 *  page size (0 when the layer is off), a "vm" section holds the page
 *  tables, TLBs and remap-engine state when it is on, and the memory
 *  system and hierarchy streams gained the page-cross drop counters.
 *  Version 5: memory-side table cache -- a "tcache" section holds the
 *  MSCache tag array, dirty buffer and counters when --table-cache is
 *  on.  Version 6: the config fingerprint is a walk over every
 *  config struct's field visitor (sim/fields.hh); the layout is
 *  unchanged, but no older file can match a v6 fingerprint, so
 *  readFile() accepts only this version: an older file is rejected by
 *  version rather than as a different machine configuration. */
inline constexpr std::uint32_t formatVersion = 6;

/** "CSEC" as a little-endian u32. */
inline constexpr std::uint32_t sectionMagic = 0x43455343u;

/** "CEND" as a little-endian u32. */
inline constexpr std::uint32_t trailerMagic = 0x444E4543u;

/** Upper bound on one section's payload (sanity check on load). */
inline constexpr std::uint32_t maxSectionPayload = 256u * 1024 * 1024;

/** Upper bound on any embedded string length (names, labels). */
inline constexpr std::uint32_t maxStringLen = 4096;

/** FNV-1a offset basis; also the seed of the trailer checksum chain. */
inline constexpr std::uint64_t fnvOffsetBasis = 1469598103934665603ULL;

/** 64-bit FNV-1a over @p len bytes, continuing from @p seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t seed = fnvOffsetBasis)
{
    constexpr std::uint64_t prime = 1099511628211ULL;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= prime;
    }
    return h;
}

/** Map a signed delta onto an unsigned varint-friendly value. */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
zigzagDecode(std::uint64_t u)
{
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/** Append @p v to @p out as a LEB128 varint. */
inline void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/**
 * Decode a LEB128 varint from @p data at @p pos (advanced past it).
 * @throws CkptError on truncation or an overlong/overflowing encoding.
 */
inline std::uint64_t
getVarint(const unsigned char *data, std::size_t size, std::size_t &pos)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (pos >= size)
            throw CkptError("truncated varint in checkpoint payload");
        const unsigned char byte = data[pos++];
        if (shift == 63 && (byte & 0x7E))
            throw CkptError("overlong varint in checkpoint payload");
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if (!(byte & 0x80))
            return v;
    }
    throw CkptError("unterminated varint in checkpoint payload");
}

/** Append @p v little-endian. */
template <typename T>
void
putLe(std::string &out, T v)
{
    static_assert(std::is_integral_v<T> || std::is_floating_point_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    // The simulator only targets little-endian hosts (x86-64/aarch64);
    // memcpy keeps this both fast and strict-aliasing clean.
    out.append(reinterpret_cast<const char *>(bytes), sizeof(T));
}

/** Decode a little-endian T from @p data at @p pos (advanced). */
template <typename T>
T
getLe(const unsigned char *data, std::size_t size, std::size_t &pos)
{
    if (size - pos < sizeof(T) || pos > size)
        throw CkptError("truncated fixed-width field in checkpoint");
    T v;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return v;
}

} // namespace ckpt

#endif // CKPT_FORMAT_HH
