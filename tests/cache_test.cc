/**
 * @file
 * Tests for the persistent result cache behind orion_served
 * (core/cache.hh): hit/miss semantics, byte-identical round trips,
 * recovery after reopen, per-line quarantine of corruption, and the
 * segment-LRU size bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>

#include "core/cache.hh"
#include "core/checkpoint.hh"
#include "core/sweep.hh"

namespace {

using namespace orion;

core::CheckpointEntry
syntheticEntry(unsigned i)
{
    core::CheckpointEntry e;
    e.rateIndex = 0;
    e.seedIndex = 0;
    e.attempts = 1;
    e.report.completed = true;
    e.report.stopReason = StopReason::Completed;
    e.report.avgLatencyCycles = 17.25 + i;
    e.report.offeredLoad = 0.01 * (i + 1);
    e.report.sampleInjected = 100 + i;
    e.report.sampleEjected = 100 + i;
    e.report.nodePowerWatts = {0.125, 1.0 / 3.0, 0.75};
    return e;
}

std::string
freshDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + name;
    // Scrub any leftovers from a previous run of this binary.
    if (DIR* d = ::opendir(dir.c_str())) {
        while (dirent* ent = ::readdir(d)) {
            const std::string n = ent->d_name;
            if (n != "." && n != "..")
                std::remove((dir + "/" + n).c_str());
        }
        ::closedir(d);
    }
    return dir;
}

std::vector<std::string>
segmentFiles(const std::string& dir)
{
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr)
        return out;
    while (dirent* ent = ::readdir(d)) {
        const std::string n = ent->d_name;
        if (n.rfind("seg_", 0) == 0)
            out.push_back(dir + "/" + n);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

void
spit(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TEST(ResultCache, MissThenHitRoundTripsBytes)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_hitmiss");
    core::ResultCache cache(opts);

    const core::CheckpointEntry e = syntheticEntry(1);
    core::CheckpointEntry out;
    EXPECT_FALSE(cache.lookup(41, out));
    cache.insert(41, e);
    ASSERT_TRUE(cache.lookup(41, out));
    // Byte identity through the wire format, not field-wise
    // approximation: the serve drill cmp(1)s these lines.
    EXPECT_EQ(core::serializeEntry(out), core::serializeEntry(e));

    const core::CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.quarantined, 0u);
}

TEST(ResultCache, ReopenRecoversAcknowledgedInserts)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_reopen");
    std::vector<std::string> want;
    {
        core::ResultCache cache(opts);
        for (unsigned i = 0; i < 5; ++i) {
            cache.insert(100 + i, syntheticEntry(i));
            want.push_back(core::serializeEntry(syntheticEntry(i)));
        }
        // No clean shutdown call: destruction stands in for SIGKILL
        // (every insert was already fsync'd).
    }
    core::ResultCache cache(opts);
    EXPECT_EQ(cache.stats().entries, 5u);
    for (unsigned i = 0; i < 5; ++i) {
        core::CheckpointEntry out;
        ASSERT_TRUE(cache.lookup(100 + i, out)) << "key " << i;
        EXPECT_EQ(core::serializeEntry(out), want[i]);
    }
}

TEST(ResultCache, LastDuplicateWins)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_dup");
    {
        core::ResultCache cache(opts);
        cache.insert(7, syntheticEntry(1));
        cache.insert(7, syntheticEntry(2));
    }
    core::ResultCache cache(opts);
    core::CheckpointEntry out;
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(core::serializeEntry(out),
              core::serializeEntry(syntheticEntry(2)));
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, TornTailIsQuarantinedNotFatal)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_torn");
    {
        core::ResultCache cache(opts);
        for (unsigned i = 0; i < 3; ++i)
            cache.insert(200 + i, syntheticEntry(i));
    }
    const std::vector<std::string> segs = segmentFiles(opts.dir);
    ASSERT_EQ(segs.size(), 1u);
    std::string bytes = slurp(segs[0]);
    ASSERT_GT(bytes.size(), 20u);
    bytes.resize(bytes.size() - 17); // tear mid-checksum
    spit(segs[0], bytes);

    core::ResultCache cache(opts);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().quarantined, 1u);
    core::CheckpointEntry out;
    EXPECT_TRUE(cache.lookup(200, out));
    EXPECT_TRUE(cache.lookup(201, out));
    EXPECT_FALSE(cache.lookup(202, out)); // the torn one misses
}

TEST(ResultCache, MidFileCorruptionQuarantinesOnlyThatLine)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_flip");
    {
        core::ResultCache cache(opts);
        for (unsigned i = 0; i < 3; ++i)
            cache.insert(300 + i, syntheticEntry(i));
    }
    const std::vector<std::string> segs = segmentFiles(opts.dir);
    ASSERT_EQ(segs.size(), 1u);
    std::string bytes = slurp(segs[0]);
    // Flip a bit in the SECOND entry line (the journal would abort
    // here; the cache must shrug).
    std::size_t nl = bytes.find('\n');            // end of header
    nl = bytes.find('\n', nl + 1);                // end of line 1
    ASSERT_NE(nl, std::string::npos);
    bytes[nl + 10] = static_cast<char>(bytes[nl + 10] ^ 0x04);
    spit(segs[0], bytes);

    core::ResultCache cache(opts);
    EXPECT_EQ(cache.stats().quarantined, 1u);
    core::CheckpointEntry out;
    EXPECT_TRUE(cache.lookup(300, out));
    EXPECT_FALSE(cache.lookup(301, out));
    ASSERT_TRUE(cache.lookup(302, out));
    EXPECT_EQ(core::serializeEntry(out),
              core::serializeEntry(syntheticEntry(2)));
}

TEST(ResultCache, BadHeaderQuarantinesWholeSegment)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_badhdr");
    {
        core::ResultCache cache(opts);
        cache.insert(1, syntheticEntry(1));
    }
    const std::vector<std::string> segs = segmentFiles(opts.dir);
    ASSERT_EQ(segs.size(), 1u);
    spit(segs[0], "#not-a-cache v9\n" + slurp(segs[0]));

    core::ResultCache cache(opts);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_GE(cache.stats().quarantined, 1u);
    core::CheckpointEntry out;
    EXPECT_FALSE(cache.lookup(1, out));
}

TEST(ResultCache, LruEvictionBoundsLiveEntries)
{
    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_lru");
    opts.maxEntries = 4;
    opts.segmentEntries = 2;
    core::ResultCache cache(opts);

    for (unsigned i = 0; i < 10; ++i)
        cache.insert(500 + i, syntheticEntry(i));

    const core::CacheStats s = cache.stats();
    EXPECT_LE(s.entries, opts.maxEntries + opts.segmentEntries);
    EXPECT_GT(s.evictedSegments, 0u);
    EXPECT_GT(s.evictedEntries, 0u);
    // The newest insert always survives (it sits in the active
    // segment, which is never evicted).
    core::CheckpointEntry out;
    EXPECT_TRUE(cache.lookup(509, out));
    // The oldest segment is gone.
    EXPECT_FALSE(cache.lookup(500, out));
    // On-disk footprint matches the index bound.
    EXPECT_LE(segmentFiles(opts.dir).size(), 4u);
}

TEST(ResultCache, EncodeDecodeRejectsDamage)
{
    const core::CheckpointEntry e = syntheticEntry(3);
    const std::string line =
        core::ResultCache::encodeLine(9, core::serializeEntry(e));
    std::uint64_t key = 0;
    core::CachedEntry out;
    ASSERT_TRUE(core::ResultCache::decodeLine(line, key, out));
    EXPECT_EQ(key, 9u);
    EXPECT_EQ(out.line, core::serializeEntry(e));
    EXPECT_EQ(out.failed, e.failed);
    EXPECT_EQ(out.failureMessage, e.failureMessage);

    // Any single-character damage must be caught by a checksum.
    std::string mut = line;
    mut[5] ^= 0x01;
    EXPECT_FALSE(core::ResultCache::decodeLine(mut, key, out));
    EXPECT_FALSE(core::ResultCache::decodeLine("", key, out));
    EXPECT_FALSE(core::ResultCache::decodeLine("K|fp=zz", key, out));
    EXPECT_FALSE(core::ResultCache::decodeLine(
        line.substr(0, line.size() - 1), key, out));
}

TEST(ResultCache, CachedPointMatchesRecomputedBytes)
{
    // The end-to-end property orion_served relies on: a Report that
    // went through insert() + lookup() serializes to the same bytes
    // as rerunning the simulation from scratch.
    SimConfig s;
    s.samplePackets = 300;
    s.maxCycles = 60000;
    TrafficConfig t;
    const NetworkConfig n = NetworkConfig::vc16();
    const std::vector<double> rates = {0.04};

    const auto first = Sweep::overRates(n, t, s, rates);
    ASSERT_EQ(first.size(), 1u);
    core::CheckpointEntry e;
    e.report = first[0].report;

    core::CacheOptions opts;
    opts.dir = freshDir("orion_cache_e2e");
    const std::uint64_t key =
        core::sweepFingerprint(n, t, s, rates, 1);
    {
        core::ResultCache cache(opts);
        cache.insert(key, e);
    }

    core::ResultCache cache(opts); // reopen: disk round trip included
    core::CheckpointEntry cached;
    ASSERT_TRUE(cache.lookup(key, cached));

    const auto second = Sweep::overRates(n, t, s, rates);
    core::CheckpointEntry recomputed;
    recomputed.report = second[0].report;
    EXPECT_EQ(core::serializeEntry(cached),
              core::serializeEntry(recomputed));
}

} // namespace
