/**
 * @file
 * Persistent content-hashed result cache (docs/ROBUSTNESS.md,
 * "Resident service").
 *
 * The orion_served daemon answers repeated design-space queries; a
 * point that was ever computed should never be computed again, even
 * across a SIGKILL of the daemon. The cache maps a single-point
 * configuration fingerprint — `sweepFingerprint(network, traffic,
 * sim, {rate}, 1)`, which already hashes every result-determining
 * field plus kDeterminismEpoch — to the cell's CheckpointEntry.
 *
 * In memory each key keeps the entry's canonical serializeEntry line
 * (the bytes it was written with, or read back at replay), never a
 * parsed Report: a hit hands out those bytes as they are, and only
 * the three outcome fields the job engine branches on sit beside
 * them (CachedEntry).
 *
 * Storage is a directory of append-only *segment* files reusing the
 * checkpoint line discipline: each line carries its own FNV-1a
 * checksum and is fsync'd before the insert is acknowledged, so an
 * acknowledged entry survives SIGKILL. Where the sweep journal is
 * strict (mid-file corruption aborts a resume), the cache is
 * forgiving by design: a cache is advisory, so a corrupt line —
 * torn tail, bit flip, spliced garbage — is **quarantined** (skipped
 * and counted, the key simply misses) and loading never throws for
 * entry damage. Only an unusable directory is an error.
 *
 * Size is bounded: the active segment rotates every
 * CacheOptions::segmentEntries inserts, and when the live index
 * exceeds CacheOptions::maxEntries whole least-recently-used
 * non-active segments are deleted (coarse LRU: per-segment use
 * stamps, no per-entry bookkeeping on the hot path).
 */
#ifndef ORION_CORE_CACHE_HH
#define ORION_CORE_CACHE_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/annotations.hh"
#include "core/checkpoint.hh"
#include "core/sync.hh"

namespace orion::core {

/** Structured cache failure: an unusable directory or a failed
 * append (e.g. ENOSPC). Entry corruption is never an error. */
class CacheError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Cache tuning knobs. */
struct CacheOptions
{
    /** Cache directory (created if missing; parent must exist). */
    std::string dir;
    /** Live-entry bound; beyond it LRU segments are evicted. */
    std::uint64_t maxEntries = 4096;
    /** Inserts per segment file before rotating to a fresh one. */
    std::uint64_t segmentEntries = 256;
};

/**
 * One cached point as the cache holds and hands it out: the entry's
 * serializeEntry line, stored once and never re-serialized, plus the
 * outcome fields core::Server reads to settle a job.
 */
struct CachedEntry
{
    /** serializeEntry bytes, no newline. Points are keyed and run as
     * single-point grids, so this is the ri=0,si=0 form. */
    std::string line;
    bool failed = false;
    /** failed ? failureReason : report.stopReason */
    StopReason stopReason = StopReason::Completed;
    std::string failureMessage;

    /** @p e with @p line = serializeEntry(e). */
    static CachedEntry of(const CheckpointEntry& e, std::string line);
    /** @p e, serialized here. */
    static CachedEntry of(const CheckpointEntry& e);
};

/** Counters for the stats verb and the shutdown manifest. */
struct CacheStats
{
    std::uint64_t entries = 0;   ///< live keys in the index
    std::uint64_t segments = 0;  ///< segment files on disk
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    /** Corrupt lines (or whole segments with a bad header) skipped
     * during load instead of crashing the daemon. */
    std::uint64_t quarantined = 0;
    std::uint64_t evictedSegments = 0;
    std::uint64_t evictedEntries = 0;
};

/**
 * The cache proper. Thread-safe: daemon workers look up and insert
 * concurrently under one annotated core::Mutex (disk appends happen
 * inside the critical section — an insert is one write + fsync, the
 * same discipline as CheckpointJournal::append).
 */
class ResultCache
{
  public:
    /** Open (and recover) the cache at @p opts.dir. Scans existing
     * segment files oldest-first, quarantining undecodable lines;
     * later duplicates of a key win. @throw CacheError only when the
     * directory cannot be created or scanned. */
    explicit ResultCache(const CacheOptions& opts);
    ~ResultCache();

    ResultCache(const ResultCache&) = delete;
    ResultCache& operator=(const ResultCache&) = delete;

    /** Look up @p key; on a hit copy the stored entry into @p out
     * and freshen its segment's LRU stamp. */
    bool lookup(std::uint64_t key, CachedEntry& out)
        ORION_EXCLUDES(mutex_);
    /** As above, parsed into a full CheckpointEntry (tests and tools
     * that inspect the Report). */
    bool lookup(std::uint64_t key, CheckpointEntry& out)
        ORION_EXCLUDES(mutex_);

    /** Append (key, entry) to the active segment (fsync'd) and
     * index it. Rotates/evicts segments per CacheOptions.
     * @throw CacheError when the append cannot be made durable. */
    void insert(std::uint64_t key, const CachedEntry& e)
        ORION_EXCLUDES(mutex_);
    void insert(std::uint64_t key, const CheckpointEntry& e)
        ORION_EXCLUDES(mutex_);

    CacheStats stats() const ORION_EXCLUDES(mutex_);

    /** The shutdown-manifest JSON object (schema
     * "orion-cache-manifest-v1"): directory, bounds, counters. */
    std::string manifestJson() const ORION_EXCLUDES(mutex_);

    /** Atomically write manifestJson() to dir/cache.manifest.json
     * (the "persist the cache index" step of a graceful drain; the
     * index itself is recovered from the segments). */
    void writeManifest() const ORION_EXCLUDES(mutex_);

    const std::string& dir() const { return opts_.dir; }

    /// @name Wire format (exposed for tests and the fuzz harness)
    /// @{
    /** One segment line (no newline): "K|fp=<hex16>|e=<escaped
     * @p entry_line>|c=<hex16 FNV-1a of everything before the |c=
     * field>", where @p entry_line is serializeEntry bytes. */
    static std::string encodeLine(std::uint64_t key,
                                  const std::string& entry_line);
    /** Decode one segment line; false on any damage (never throws).
     * The inner entry is parsed once to validate it and to read its
     * outcome; @p out keeps its unescaped bytes. */
    static bool decodeLine(std::string_view line, std::uint64_t& key,
                           CachedEntry& out);
    /** "seg_<id, 6 digits>.orc". */
    static std::string segmentFileName(std::uint64_t id);
    /** The segment header line: "#orion-cache v1". */
    static const char* segmentHeader();
    /// @}

  private:
    struct Segment
    {
        std::string path;                 ///< full path on disk
        std::vector<std::uint64_t> keys;  ///< keys written here
        std::uint64_t lastUse = 0;        ///< LRU stamp (useClock_)
        std::uint64_t lines = 0;          ///< decoded entry lines
    };

    void loadSegment(std::uint64_t id, const std::string& path)
        ORION_REQUIRES(mutex_);
    void ensureActiveSegment() ORION_REQUIRES(mutex_);
    void evictIfOverBound() ORION_REQUIRES(mutex_);

    const CacheOptions opts_;
    mutable core::Mutex mutex_;

    struct Slot
    {
        CachedEntry entry;
        std::uint64_t segment = 0;
    };
    /** key -> latest entry. Never iterated (order would be
     * nondeterministic); segment key lists drive eviction. */
    std::unordered_map<std::uint64_t, Slot> index_
        ORION_GUARDED_BY(mutex_);
    /** id -> segment, ascending id = creation order. */
    std::map<std::uint64_t, Segment> segments_ ORION_GUARDED_BY(mutex_);
    std::uint64_t nextSegmentId_ ORION_GUARDED_BY(mutex_) = 1;
    /** Active segment: id 0 = none; fd is O_APPEND or -1. */
    std::uint64_t activeId_ ORION_GUARDED_BY(mutex_) = 0;
    int fd_ ORION_GUARDED_BY(mutex_) = -1;
    std::uint64_t activeCount_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t useClock_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t hits_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t inserts_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t quarantined_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t evictedSegments_ ORION_GUARDED_BY(mutex_) = 0;
    std::uint64_t evictedEntries_ ORION_GUARDED_BY(mutex_) = 0;
};

} // namespace orion::core

#endif // ORION_CORE_CACHE_HH
