#include "core/cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/log.hh"
#include "core/manifest.hh"

namespace orion::core {

namespace {

constexpr const char* kCacheHeader = "#orion-cache v1";

[[noreturn]] void
fail(const std::string& what)
{
    throw CacheError("orion cache: " + what + " (" +
                     std::strerror(errno) + ")");
}

/** Full write or CacheError: a partially acknowledged insert would
 * quarantine on the next load, but the caller deserves the truth. */
void
writeAll(int fd, const char* data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("segment write failed");
        }
        off += static_cast<std::size_t>(n);
    }
}

/** Parse exactly 16 lowercase/uppercase hex digits. */
bool
parseHex16(std::string_view v, std::uint64_t& out)
{
    if (v.size() != 16)
        return false;
    const std::string s(v);
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(s.c_str(), &end, 16);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = n;
    return true;
}

} // namespace

const char*
ResultCache::segmentHeader()
{
    return kCacheHeader;
}

std::string
ResultCache::segmentFileName(std::uint64_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "seg_%06llu.orc",
                  static_cast<unsigned long long>(id));
    return buf;
}

CachedEntry
CachedEntry::of(const CheckpointEntry& e, std::string line)
{
    CachedEntry c;
    c.line = std::move(line);
    c.failed = e.failed;
    c.stopReason = e.failed ? e.failureReason : e.report.stopReason;
    c.failureMessage = e.failureMessage;
    return c;
}

CachedEntry
CachedEntry::of(const CheckpointEntry& e)
{
    return of(e, serializeEntry(e));
}

std::string
ResultCache::encodeLine(std::uint64_t key, const std::string& entry_line)
{
    std::string payload = "K|fp=";
    payload += hex16(key);
    payload += "|e=";
    payload += escapeField(entry_line);
    payload += "|c=";
    payload += hex16(fnv1a64(
        std::string_view(payload.data(), payload.size() - 3)));
    return payload;
}

bool
ResultCache::decodeLine(std::string_view line, std::uint64_t& key,
                        CachedEntry& out)
{
    if (line.size() < 2 || line.substr(0, 2) != "K|")
        return false;
    const std::size_t cpos = line.rfind("|c=");
    if (cpos == std::string_view::npos ||
        cpos + 3 + 16 != line.size()) {
        return false;
    }
    std::uint64_t got = 0;
    if (!parseHex16(line.substr(cpos + 3), got) ||
        got != fnv1a64(line.substr(0, cpos))) {
        return false;
    }

    std::string_view body = line.substr(2, cpos - 2);
    bool saw_fp = false;
    bool saw_e = false;
    std::uint64_t k = 0;
    CachedEntry parsed;
    while (!body.empty()) {
        const std::size_t bar = body.find('|');
        const std::string_view field =
            bar == std::string_view::npos ? body : body.substr(0, bar);
        body = bar == std::string_view::npos
                   ? std::string_view{}
                   : body.substr(bar + 1);
        const std::size_t eq = field.find('=');
        if (eq == std::string_view::npos)
            return false;
        const std::string_view fkey = field.substr(0, eq);
        const std::string_view v = field.substr(eq + 1);
        if (fkey == "fp") {
            if (!parseHex16(v, k))
                return false;
            saw_fp = true;
        } else if (fkey == "e") {
            // The inner value is an escaped journal line with its
            // own checksum; parseEntry revalidates it. The bytes are
            // kept as read, never re-serialized.
            try {
                std::string entry_line = unescapeField(v);
                const CheckpointEntry e = parseEntry(entry_line);
                parsed = CachedEntry::of(e, std::move(entry_line));
            } catch (const CheckpointError&) {
                return false;
            }
            saw_e = true;
        }
        // Unknown fields are tolerated (forward compatibility).
    }
    if (!saw_fp || !saw_e)
        return false;
    key = k;
    out = std::move(parsed);
    return true;
}

ResultCache::ResultCache(const CacheOptions& opts) : opts_(opts)
{
    if (opts_.dir.empty())
        throw CacheError("orion cache: empty cache directory");
    if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST)
        fail("cannot create cache directory '" + opts_.dir + "'");

    DIR* d = ::opendir(opts_.dir.c_str());
    if (d == nullptr)
        fail("cannot scan cache directory '" + opts_.dir + "'");
    std::vector<std::string> names;
    for (const dirent* ent = ::readdir(d); ent != nullptr;
         ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() > 8 && name.compare(0, 4, "seg_") == 0 &&
            name.compare(name.size() - 4, 4, ".orc") == 0) {
            names.push_back(name);
        }
    }
    ::closedir(d);
    // Ascending file names = creation order: older segments get
    // older LRU stamps and later duplicates of a key win.
    std::sort(names.begin(), names.end());

    core::LockGuard lock(mutex_);
    for (const std::string& name : names) {
        const std::uint64_t id = std::strtoull(name.c_str() + 4,
                                               nullptr, 10);
        if (id >= nextSegmentId_)
            nextSegmentId_ = id + 1;
        loadSegment(id, opts_.dir + "/" + name);
    }
}

ResultCache::~ResultCache()
{
    core::LockGuard lock(mutex_);
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

void
ResultCache::loadSegment(std::uint64_t id, const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        // Unreadable file: quarantine the whole segment, keep going.
        ++quarantined_;
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    // A segment whose header is damaged is quarantined wholesale
    // (left on disk for forensics, never indexed or evicted).
    const std::size_t eol = text.find('\n');
    if (eol == std::string::npos ||
        text.compare(0, eol, kCacheHeader) != 0) {
        ++quarantined_;
        return;
    }

    Segment seg;
    seg.path = path;
    seg.lastUse = ++useClock_;
    std::size_t pos = eol + 1;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        // No trailing newline: the torn tail of a crash. Decode is
        // still attempted — a line is judged by its checksum, not
        // by how the process died while writing the next one.
        if (end == std::string::npos)
            end = text.size();
        const std::string_view line(text.data() + pos, end - pos);
        pos = end + 1;
        if (line.empty())
            continue;
        std::uint64_t key = 0;
        CachedEntry entry;
        if (!decodeLine(line, key, entry)) {
            ++quarantined_;
            continue;
        }
        index_[key] = Slot{std::move(entry), id};
        seg.keys.push_back(key);
        ++seg.lines;
    }
    segments_[id] = std::move(seg);
}

void
ResultCache::ensureActiveSegment()
{
    if (fd_ >= 0)
        return;
    const std::uint64_t id = nextSegmentId_++;
    const std::string path = opts_.dir + "/" + segmentFileName(id);
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                          0644);
    if (fd < 0)
        fail("cannot create segment '" + path + "'");
    const std::string header = std::string(kCacheHeader) + "\n";
    writeAll(fd, header.data(), header.size());
    if (::fsync(fd) != 0) {
        ::close(fd);
        fail("fsync of new segment '" + path + "' failed");
    }
    Segment seg;
    seg.path = path;
    seg.lastUse = ++useClock_;
    segments_[id] = std::move(seg);
    activeId_ = id;
    activeCount_ = 0;
    fd_ = fd;
}

bool
ResultCache::lookup(std::uint64_t key, CheckpointEntry& out)
{
    CachedEntry hit;
    if (!lookup(key, hit))
        return false;
    // A stored line passed parseEntry when it was indexed.
    out = parseEntry(hit.line);
    return true;
}

bool
ResultCache::lookup(std::uint64_t key, CachedEntry& out)
{
    core::LockGuard lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return false;
    }
    out = it->second.entry;
    const auto seg = segments_.find(it->second.segment);
    if (seg != segments_.end())
        seg->second.lastUse = ++useClock_;
    ++hits_;
    return true;
}

void
ResultCache::insert(std::uint64_t key, const CheckpointEntry& e)
{
    insert(key, CachedEntry::of(e));
}

void
ResultCache::insert(std::uint64_t key, const CachedEntry& e)
{
    const std::string line = encodeLine(key, e.line) + "\n";
    core::LockGuard lock(mutex_);
    ensureActiveSegment();
    writeAll(fd_, line.data(), line.size());
    if (::fsync(fd_) != 0)
        fail("fsync of cache append failed");

    index_[key] = Slot{e, activeId_};
    Segment& seg = segments_[activeId_];
    seg.keys.push_back(key);
    ++seg.lines;
    seg.lastUse = ++useClock_;
    ++inserts_;
    if (++activeCount_ >= opts_.segmentEntries) {
        ::close(fd_);
        fd_ = -1;
        activeId_ = 0;
    }
    evictIfOverBound();
}

void
ResultCache::evictIfOverBound()
{
    while (index_.size() > opts_.maxEntries) {
        // Coarse LRU: drop the least-recently-touched sealed
        // segment. The active segment is never a victim.
        std::uint64_t victim = 0;
        std::uint64_t oldest = 0;
        for (const auto& [id, seg] : segments_) {
            if (id == activeId_)
                continue;
            if (victim == 0 || seg.lastUse < oldest) {
                victim = id;
                oldest = seg.lastUse;
            }
        }
        if (victim == 0)
            return; // only the active segment left: tolerate overshoot
        const Segment& seg = segments_[victim];
        ::unlink(seg.path.c_str());
        for (const std::uint64_t key : seg.keys) {
            const auto it = index_.find(key);
            if (it != index_.end() && it->second.segment == victim) {
                index_.erase(it);
                ++evictedEntries_;
            }
        }
        segments_.erase(victim);
        ++evictedSegments_;
    }
}

CacheStats
ResultCache::stats() const
{
    core::LockGuard lock(mutex_);
    CacheStats s;
    s.entries = index_.size();
    s.segments = segments_.size();
    s.hits = hits_;
    s.misses = misses_;
    s.inserts = inserts_;
    s.quarantined = quarantined_;
    s.evictedSegments = evictedSegments_;
    s.evictedEntries = evictedEntries_;
    return s;
}

std::string
ResultCache::manifestJson() const
{
    const CacheStats s = stats();
    std::ostringstream out;
    out << "{\"schema\":\"orion-cache-manifest-v1\""
        << ",\"dir\":\"" << log::jsonEscape(opts_.dir) << "\""
        << ",\"max_entries\":" << opts_.maxEntries
        << ",\"segment_entries\":" << opts_.segmentEntries
        << ",\"entries\":" << s.entries
        << ",\"segments\":" << s.segments
        << ",\"hits\":" << s.hits
        << ",\"misses\":" << s.misses
        << ",\"inserts\":" << s.inserts
        << ",\"quarantined\":" << s.quarantined
        << ",\"evicted_segments\":" << s.evictedSegments
        << ",\"evicted_entries\":" << s.evictedEntries << "}";
    return out.str();
}

void
ResultCache::writeManifest() const
{
    writeFileAtomic(opts_.dir + "/cache.manifest.json",
                    manifestJson() + "\n");
}

} // namespace orion::core
