#include "ckpt/checkpoint.hh"

#include <cstdio>

namespace ckpt {

namespace {

[[noreturn]] void
fail(const std::string &path, const std::string &why)
{
    throw CkptError("checkpoint '" + path + "': " + why);
}

void
putString(std::string &out, const std::string &s)
{
    if (s.size() > maxStringLen)
        throw CkptError("checkpoint string field too long");
    putLe<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

std::string
getString(const std::string &path, const unsigned char *data,
          std::size_t size, std::size_t &pos)
{
    const auto len = getLe<std::uint32_t>(data, size, pos);
    if (len > maxStringLen)
        fail(path, "string field longer than the format allows");
    if (size - pos < len)
        fail(path, "truncated string field");
    std::string s(reinterpret_cast<const char *>(data + pos), len);
    pos += len;
    return s;
}

} // namespace

void
CheckpointImage::addSection(const std::string &name, std::string payload)
{
    if (findSection(name))
        throw CkptError("duplicate checkpoint section '" + name + "'");
    if (name.empty() || name.size() > maxStringLen)
        throw CkptError("bad checkpoint section name");
    if (payload.size() > maxSectionPayload)
        throw CkptError("checkpoint section '" + name +
                        "' exceeds the payload limit");
    sections_.emplace_back(name, std::move(payload));
}

const std::string *
CheckpointImage::findSection(const std::string &name) const
{
    for (const auto &[n, payload] : sections_) {
        if (n == name)
            return &payload;
    }
    return nullptr;
}

const std::string &
CheckpointImage::section(const std::string &name) const
{
    if (const std::string *p = findSection(name))
        return *p;
    throw CkptError("checkpoint is missing required section '" + name +
                    "'");
}

std::uint64_t
CheckpointImage::payloadBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[name, payload] : sections_)
        total += payload.size();
    return total;
}

std::uint64_t
CheckpointImage::writeFile(const std::string &path) const
{
    std::string out;
    out.append(fileMagic, sizeof(fileMagic));
    putLe<std::uint32_t>(out, header.version);
    putLe<std::uint32_t>(out, 0); // reserved
    putLe<std::uint64_t>(out, header.configFingerprint);
    putLe<std::uint64_t>(out, header.seed);
    putLe<double>(out, header.scale);
    putLe<std::uint64_t>(out, header.cycle);
    putLe<std::uint64_t>(out, header.misses);
    putLe<std::uint32_t>(out, header.cores);
    putLe<std::uint32_t>(out, header.ulmtMode);
    putLe<std::uint32_t>(out, header.vmPageBytes);
    putString(out, header.workload);
    putString(out, header.label);

    std::uint64_t chain = fnvOffsetBasis;
    for (const auto &[name, payload] : sections_) {
        putLe<std::uint32_t>(out, sectionMagic);
        putLe<std::uint32_t>(out,
                             static_cast<std::uint32_t>(name.size()));
        out.append(name);
        putLe<std::uint32_t>(out,
                             static_cast<std::uint32_t>(payload.size()));
        putLe<std::uint32_t>(out, 0); // reserved
        const std::uint64_t sum =
            fnv1a64(payload.data(), payload.size());
        putLe<std::uint64_t>(out, sum);
        out.append(payload);
        chain = fnv1a64(&sum, sizeof(sum), chain);
    }

    putLe<std::uint32_t>(out, trailerMagic);
    putLe<std::uint32_t>(out,
                         static_cast<std::uint32_t>(sections_.size()));
    putLe<std::uint64_t>(out, payloadBytes());
    putLe<std::uint64_t>(out, chain);

    // Temp-file + rename: a crash mid-write never leaves a partial
    // file under the final name.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fail(path, "cannot open for writing");
    const bool ok =
        std::fwrite(out.data(), 1, out.size(), f) == out.size();
    const bool closed = std::fclose(f) == 0;
    if (!ok || !closed) {
        std::remove(tmp.c_str());
        fail(path, "write failed (disk full?)");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fail(path, "cannot rename temp file into place");
    }
    return out.size();
}

CheckpointImage
CheckpointImage::readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fail(path, "cannot open");
    std::string raw;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        raw.append(buf, n);
    const bool readErr = std::ferror(f) != 0;
    std::fclose(f);
    if (readErr)
        fail(path, "read error");

    const auto *data =
        reinterpret_cast<const unsigned char *>(raw.data());
    const std::size_t size = raw.size();
    std::size_t pos = 0;

    CheckpointImage img;
    try {
        if (size < sizeof(fileMagic) ||
            std::memcmp(raw.data(), fileMagic, sizeof(fileMagic)) != 0)
            fail(path, "not a ULMTCKP1 checkpoint (bad magic)");
        pos = sizeof(fileMagic);
        img.header.version = getLe<std::uint32_t>(data, size, pos);
        if (img.header.version != formatVersion)
            fail(path, "unsupported format version " +
                           std::to_string(img.header.version));
        (void)getLe<std::uint32_t>(data, size, pos); // reserved
        img.header.configFingerprint =
            getLe<std::uint64_t>(data, size, pos);
        img.header.seed = getLe<std::uint64_t>(data, size, pos);
        img.header.scale = getLe<double>(data, size, pos);
        img.header.cycle = getLe<std::uint64_t>(data, size, pos);
        img.header.misses = getLe<std::uint64_t>(data, size, pos);
        img.header.cores = getLe<std::uint32_t>(data, size, pos);
        img.header.ulmtMode = getLe<std::uint32_t>(data, size, pos);
        img.header.vmPageBytes = getLe<std::uint32_t>(data, size, pos);
        img.header.workload = getString(path, data, size, pos);
        img.header.label = getString(path, data, size, pos);

        std::uint64_t chain = fnvOffsetBasis;
        for (;;) {
            const auto magic = getLe<std::uint32_t>(data, size, pos);
            if (magic == trailerMagic)
                break;
            if (magic != sectionMagic)
                fail(path, "corrupt section marker");
            std::string name = getString(path, data, size, pos);
            const auto payloadLen =
                getLe<std::uint32_t>(data, size, pos);
            if (payloadLen > maxSectionPayload)
                fail(path, "section '" + name +
                               "' exceeds the payload limit");
            (void)getLe<std::uint32_t>(data, size, pos); // reserved
            const auto stored = getLe<std::uint64_t>(data, size, pos);
            if (size - pos < payloadLen)
                fail(path, "truncated payload of section '" + name +
                               "'");
            const std::uint64_t sum = fnv1a64(data + pos, payloadLen);
            if (sum != stored)
                fail(path, "checksum mismatch in section '" + name +
                               "' (corrupt payload)");
            img.addSection(
                std::move(name),
                raw.substr(pos, payloadLen));
            pos += payloadLen;
            chain = fnv1a64(&sum, sizeof(sum), chain);
        }

        const auto count = getLe<std::uint32_t>(data, size, pos);
        const auto totalBytes = getLe<std::uint64_t>(data, size, pos);
        const auto storedChain = getLe<std::uint64_t>(data, size, pos);
        if (count != img.sections_.size())
            fail(path, "trailer section count mismatch");
        if (totalBytes != img.payloadBytes())
            fail(path, "trailer payload-byte total mismatch");
        if (storedChain != chain)
            fail(path, "trailer checksum chain mismatch");
        if (pos != size)
            fail(path, "trailing garbage after trailer");
    } catch (const CkptError &e) {
        // getLe/getString throw bare messages on overrun; re-wrap so
        // every failure names the file.
        const std::string what = e.what();
        if (what.rfind("checkpoint '", 0) == 0)
            throw;
        fail(path, what);
    }
    return img;
}

CkptHeader
CheckpointImage::readHeader(const std::string &path)
{
    return readFile(path).header;
}

} // namespace ckpt
