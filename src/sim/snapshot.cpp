#include "sim/snapshot.hpp"

namespace triage::sim {

namespace {

/** Archive format magic ("TRSN") + layout version. Version 3: flat
 *  hot-path maps serialize as sorted (key, value) pairs and the
 *  tag-compressor probe table is rebuilt on load instead of stored
 *  (docs/performance.md §Hot-path v2). Version 4: MISB's off-chip
 *  store is a granule table (no separate Bloom-filter set, confidence
 *  bits per entry) and its metadata caches, training unit and stream
 *  buffers serialize as packed arrays. */
constexpr std::uint32_t MAGIC = 0x5452534eu;
constexpr std::uint32_t FORMAT_VERSION = 4;

/**
 * FNV-1a folded over 8-byte words (byte-wise tail). Warm blobs run to
 * tens of MB and the checksum is paid on every seal and open, so the
 * byte-at-a-time variant's serial multiply chain was a measurable
 * slice of checkpoint fork latency (format v2 broke compatibility
 * with v1's byte-wise digest).
 */
std::uint64_t
fnv1a(const std::uint8_t* p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        h ^= w;
        h *= 1099511628211ull;
    }
    for (; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

void
put_u32(SnapshotBlob& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put_u64(SnapshotBlob& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

bool
get_u32(const SnapshotBlob& in, std::size_t& pos, std::uint32_t& v)
{
    if (pos + 4 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[pos + static_cast<std::size_t>(i)])
             << (8 * i);
    pos += 4;
    return true;
}

bool
get_u64(const SnapshotBlob& in, std::size_t& pos, std::uint64_t& v)
{
    if (pos + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
             << (8 * i);
    pos += 8;
    return true;
}

} // namespace

void
Snapshot::underrun(std::size_t need) const
{
    util::panic(util::format_msg("snapshot underrun: need ", need,
                                 " bytes at offset ", pos_, " of ",
                                 bytes_.size()));
}

void
Snapshot::section(const char* name)
{
    std::string tag = name;
    if (saving()) {
        io(tag);
        return;
    }
    std::string seen;
    io(seen);
    if (seen != tag) {
        util::panic(util::format_msg(
            "snapshot section mismatch: restore expects \"", tag,
            "\" but the archive has \"", seen,
            "\" — save/restore sequences have drifted"));
    }
}

void
Snapshot::io(std::string& s)
{
    std::uint64_t n = s.size();
    io(n);
    if (loading())
        s.resize(static_cast<std::size_t>(n));
    if (n > 0)
        io_bytes(reinterpret_cast<std::uint8_t*>(s.data()), s.size());
}

SnapshotBlob
Snapshot::seal(std::uint32_t version, const std::string& fingerprint) const
{
    TRIAGE_ASSERT(saving(), "seal() is for save-mode archives");
    SnapshotBlob out;
    out.reserve(bytes_.size() + fingerprint.size() + 40);
    put_u32(out, MAGIC);
    put_u32(out, FORMAT_VERSION);
    put_u32(out, version);
    put_u32(out, static_cast<std::uint32_t>(fingerprint.size()));
    out.insert(out.end(), fingerprint.begin(), fingerprint.end());
    put_u64(out, bytes_.size());
    out.insert(out.end(), bytes_.begin(), bytes_.end());
    put_u64(out, fnv1a(bytes_.data(), bytes_.size()));
    return out;
}

bool
Snapshot::open(const SnapshotBlob& blob, std::uint32_t version,
               const std::string& fingerprint, Snapshot& out)
{
    std::size_t pos = 0;
    std::uint32_t magic = 0, fmt = 0, ver = 0, fp_len = 0;
    if (!get_u32(blob, pos, magic) || magic != MAGIC)
        return false;
    if (!get_u32(blob, pos, fmt) || fmt != FORMAT_VERSION)
        return false;
    if (!get_u32(blob, pos, ver) || ver != version)
        return false;
    if (!get_u32(blob, pos, fp_len) || pos + fp_len > blob.size())
        return false;
    std::string fp(blob.begin() + static_cast<std::ptrdiff_t>(pos),
                   blob.begin() + static_cast<std::ptrdiff_t>(pos + fp_len));
    pos += fp_len;
    if (fp != fingerprint)
        return false;
    std::uint64_t payload_len = 0;
    if (!get_u64(blob, pos, payload_len) || pos + payload_len > blob.size())
        return false;
    std::vector<std::uint8_t> payload(
        blob.begin() + static_cast<std::ptrdiff_t>(pos),
        blob.begin() + static_cast<std::ptrdiff_t>(pos + payload_len));
    pos += static_cast<std::size_t>(payload_len);
    std::uint64_t sum = 0;
    if (!get_u64(blob, pos, sum) ||
        sum != fnv1a(payload.data(), payload.size()))
        return false;
    out.mode_ = Mode::Load;
    out.bytes_ = std::move(payload);
    out.pos_ = 0;
    return true;
}

Snapshot
Snapshot::open_or_die(const SnapshotBlob& blob, std::uint32_t version,
                      const std::string& fingerprint)
{
    Snapshot s;
    if (!open(blob, version, fingerprint, s)) {
        util::fatal(util::format_msg(
            "snapshot rejected: bad magic/version/fingerprint/checksum "
            "(expected version ", version, ", fingerprint \"", fingerprint,
            "\", got ", blob.size(), " bytes)"));
    }
    return s;
}

} // namespace triage::sim
