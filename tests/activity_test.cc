/**
 * @file
 * Unit tests for switching-activity primitives (BitVec, Hamming
 * distance, bitline/cell delta computation).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "power/activity.hh"
#include "sim/rng.hh"

namespace {

using orion::power::BitVec;
using orion::power::flippedCells;
using orion::power::hammingDistance;
using orion::power::popcount64;
using orion::power::switchingWriteBitlines;

TEST(BitVec, ConstructsZeroed)
{
    const BitVec v(128);
    EXPECT_EQ(v.width(), 128u);
    EXPECT_EQ(v.wordCount(), 2u);
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, LowWordConstructor)
{
    const BitVec v(64, 0xff);
    EXPECT_EQ(v.popcount(), 8u);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(7));
    EXPECT_FALSE(v.bit(8));
}

TEST(BitVec, TopWordMaskedToWidth)
{
    BitVec v(4, 0xff);
    EXPECT_EQ(v.popcount(), 4u);
    v.setWord(0, ~0ull);
    EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVec, SetBitRoundTrips)
{
    BitVec v(100);
    v.setBit(99, true);
    v.setBit(0, true);
    EXPECT_TRUE(v.bit(99));
    EXPECT_TRUE(v.bit(0));
    EXPECT_EQ(v.popcount(), 2u);
    v.setBit(99, false);
    EXPECT_FALSE(v.bit(99));
    EXPECT_EQ(v.popcount(), 1u);
}

TEST(BitVec, EqualityComparesContent)
{
    BitVec a(64, 5);
    BitVec b(64, 5);
    EXPECT_EQ(a, b);
    b.setBit(3, true);
    EXPECT_NE(a, b);
}

TEST(Hamming, ZeroForIdentical)
{
    const BitVec a(256, 0xdeadbeef);
    EXPECT_EQ(hammingDistance(a, a), 0u);
}

TEST(Hamming, CountsDifferingBits)
{
    const BitVec a(64, 0b1010);
    const BitVec b(64, 0b0110);
    EXPECT_EQ(hammingDistance(a, b), 2u);
}

TEST(Hamming, FullWidthComplement)
{
    BitVec a(96);
    BitVec b(96);
    for (unsigned i = 0; i < 96; ++i)
        b.setBit(i, true);
    EXPECT_EQ(hammingDistance(a, b), 96u);
}

TEST(Hamming, IsSymmetric)
{
    orion::sim::Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        BitVec a(200);
        BitVec b(200);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng.next());
            b.setWord(w, rng.next());
        }
        EXPECT_EQ(hammingDistance(a, b), hammingDistance(b, a));
    }
}

TEST(Hamming, TriangleInequality)
{
    orion::sim::Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        BitVec a(128);
        BitVec b(128);
        BitVec c(128);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng.next());
            b.setWord(w, rng.next());
            c.setWord(w, rng.next());
        }
        EXPECT_LE(hammingDistance(a, c),
                  hammingDistance(a, b) + hammingDistance(b, c));
    }
}

TEST(Deltas, WriteBitlinesVsLastWrittenDatum)
{
    const BitVec last(32, 0x0f);
    const BitVec next(32, 0xf0);
    EXPECT_EQ(switchingWriteBitlines(next, last), 8u);
}

TEST(Deltas, FlippedCellsVsOldRow)
{
    const BitVec old_row(32, 0xffffffff);
    const BitVec next(32, 0xffff0000);
    EXPECT_EQ(flippedCells(next, old_row), 16u);
}

TEST(BitVec, WideVectorsUseHeapPathCorrectly)
{
    // Widths beyond the 256-bit inline capacity exercise the heap
    // storage path: all operations must behave identically.
    orion::sim::Rng rng(21);
    BitVec a(512);
    BitVec b(512);
    for (std::size_t w = 0; w < a.wordCount(); ++w) {
        a.setWord(w, rng.next());
        b.setWord(w, rng.next());
    }
    EXPECT_EQ(a.wordCount(), 8u);
    EXPECT_GT(hammingDistance(a, b), 0u);
    EXPECT_EQ(hammingDistance(a, a), 0u);

    // Copy and move semantics across the storage boundary.
    BitVec copy = a;
    EXPECT_EQ(copy, a);
    copy.setBit(500, !copy.bit(500));
    EXPECT_NE(copy, a);
    EXPECT_EQ(hammingDistance(copy, a), 1u);

    BitVec moved = std::move(copy);
    EXPECT_EQ(hammingDistance(moved, a), 1u);

    // Assign wide into narrow and narrow into wide.
    BitVec narrow(64, 0xff);
    narrow = a;
    EXPECT_EQ(narrow, a);
    BitVec wide(512);
    wide = BitVec(32, 0x7);
    EXPECT_EQ(wide.width(), 32u);
    EXPECT_EQ(wide.popcount(), 3u);
}

TEST(BitVec, SelfAssignmentIsSafe)
{
    BitVec v(100);
    v.setBit(42, true);
    v = *&v;
    EXPECT_TRUE(v.bit(42));
    EXPECT_EQ(v.popcount(), 1u);
}

TEST(Deltas, RandomDataAveragesHalfWidth)
{
    // Statistical property: random-vs-random Hamming distance averages
    // W/2 (this is what makes avg-activity estimates use F/2).
    orion::sim::Rng rng(99);
    const unsigned width = 256;
    double total = 0.0;
    const int trials = 2000;
    for (int t = 0; t < trials; ++t) {
        BitVec a(width);
        BitVec b(width);
        for (std::size_t w = 0; w < a.wordCount(); ++w) {
            a.setWord(w, rng.next());
            b.setWord(w, rng.next());
        }
        total += hammingDistance(a, b);
    }
    EXPECT_NEAR(total / trials, width / 2.0, 3.0);
}

// --- the popcount helper ---------------------------------------------

TEST(Popcount64, MatchesStdPopcount)
{
    // Edge words, then random words of every density (masking a random
    // word with further random words thins it out).
    for (const std::uint64_t w :
         {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1},
          std::uint64_t{1} << 63, std::uint64_t{0x5555555555555555},
          std::uint64_t{0xaaaaaaaaaaaaaaaa}, std::uint64_t{0xff00ff00}}) {
        EXPECT_EQ(popcount64(w), static_cast<unsigned>(std::popcount(w)));
    }
    orion::sim::Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t w = rng.next();
        for (int thin = i % 4; thin > 0; --thin)
            w &= rng.next();
        if (i % 5 == 0)
            w = ~w;
        ASSERT_EQ(popcount64(w), static_cast<unsigned>(std::popcount(w)))
            << std::hex << w;
    }
    static_assert(popcount64(0xf0f0) == 8);
}

TEST(Popcount64, HammingMatchesStdPopcountAtEveryWidth)
{
    // Widths that are not multiples of 64 keep their top word masked,
    // and the inline (<= 256 bits) and heap (> 256 bits) storage paths
    // must count alike.
    orion::sim::Rng rng(13);
    for (const unsigned width : {1u, 7u, 63u, 64u, 65u, 100u, 191u, 256u,
                                 257u, 300u, 512u}) {
        for (int trial = 0; trial < 200; ++trial) {
            BitVec a(width);
            BitVec b(width);
            for (std::size_t w = 0; w < a.wordCount(); ++w) {
                a.setWord(w, rng.next());
                b.setWord(w, rng.next());
            }
            unsigned expect_ab = 0;
            unsigned expect_a = 0;
            for (std::size_t w = 0; w < a.wordCount(); ++w) {
                expect_ab += static_cast<unsigned>(
                    std::popcount(a.word(w) ^ b.word(w)));
                expect_a += static_cast<unsigned>(std::popcount(a.word(w)));
            }
            ASSERT_EQ(hammingDistance(a, b), expect_ab) << width;
            ASSERT_EQ(a.popcount(), expect_a) << width;
            ASSERT_LE(a.popcount(), width);
        }
    }
}

TEST(BitVec, CopiesAndMovesKeepContentAcrossStoragePaths)
{
    // Assignments between inline and heap vectors in both directions:
    // the inline fast path and the heap slow path must leave equal,
    // independent copies.
    orion::sim::Rng rng(5);
    const auto random = [&](unsigned width) {
        BitVec v(width);
        for (std::size_t w = 0; w < v.wordCount(); ++w)
            v.setWord(w, rng.next());
        return v;
    };
    for (const unsigned from : {40u, 256u, 300u}) {
        for (const unsigned to : {40u, 256u, 300u}) {
            const BitVec src = random(from);
            BitVec dst = random(to);
            dst = src;
            EXPECT_EQ(dst, src);
            EXPECT_EQ(dst.popcount(), src.popcount());
            BitVec copy(dst);
            EXPECT_EQ(copy, src);
            copy.setBit(0, !copy.bit(0));
            EXPECT_EQ(dst, src) << "copy shares storage";
            BitVec moved = random(to);
            moved = std::move(copy);
            EXPECT_EQ(moved.width(), from);
            EXPECT_EQ(hammingDistance(moved, src), 1u);
        }
    }
}

} // namespace
