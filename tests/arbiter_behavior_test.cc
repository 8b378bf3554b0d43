/**
 * @file
 * Tests for the behavioural arbiters: single-grant guarantee,
 * least-recently-served fairness of the matrix arbiter, round-robin
 * rotation, and the switching-activity deltas they report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "router/arbiter.hh"
#include "sim/rng.hh"

namespace {

using namespace orion::router;

std::vector<bool>
reqs(std::initializer_list<int> asserted, unsigned n)
{
    std::vector<bool> v(n, false);
    for (int i : asserted)
        v[static_cast<unsigned>(i)] = true;
    return v;
}

TEST(MatrixArbiter, NoRequestsNoWinner)
{
    MatrixArbiter arb(4);
    const auto res = arb.arbitrate(reqs({}, 4));
    EXPECT_EQ(res.winner, -1);
    EXPECT_EQ(res.deltaPri, 0u);
}

TEST(MatrixArbiter, SingleRequestWins)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({2}, 4)).winner, 2);
}

TEST(MatrixArbiter, InitialOrderPrefersLowerIndex)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({1, 3}, 4)).winner, 1);
}

TEST(MatrixArbiter, WinnerDropsToLowestPriority)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).winner, 0);
    // 0 just won, so 1 now beats 0.
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).winner, 1);
    // Both have won once; 0 was the least recent winner.
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).winner, 0);
}

TEST(MatrixArbiter, IsLeastRecentlyServedUnderContention)
{
    // With all four requesting continuously, grants must cycle through
    // all requesters with perfect fairness.
    MatrixArbiter arb(4);
    std::vector<int> grants(4, 0);
    for (int i = 0; i < 400; ++i) {
        const auto res = arb.arbitrate(reqs({0, 1, 2, 3}, 4));
        ASSERT_GE(res.winner, 0);
        ++grants[static_cast<unsigned>(res.winner)];
    }
    for (const int g : grants)
        EXPECT_EQ(g, 100);
}

TEST(MatrixArbiter, AlwaysGrantsExactlyOneUnderRandomRequests)
{
    // Property: the priority matrix must remain a total order, so any
    // non-empty request set yields exactly one winner, and the winner
    // must have requested.
    MatrixArbiter arb(6);
    orion::sim::Rng rng(17);
    for (int t = 0; t < 2000; ++t) {
        std::vector<bool> r(6);
        bool any = false;
        for (unsigned i = 0; i < 6; ++i) {
            r[i] = rng.chance(0.4);
            any = any || r[i];
        }
        const auto res = arb.arbitrate(r);
        if (any) {
            ASSERT_GE(res.winner, 0);
            EXPECT_TRUE(r[static_cast<unsigned>(res.winner)]);
        } else {
            EXPECT_EQ(res.winner, -1);
        }
    }
}

TEST(MatrixArbiter, PriorityMatrixStaysAntisymmetric)
{
    MatrixArbiter arb(5);
    orion::sim::Rng rng(23);
    for (int t = 0; t < 500; ++t) {
        std::vector<bool> r(5);
        for (unsigned i = 0; i < 5; ++i)
            r[i] = rng.chance(0.5);
        arb.arbitrate(r);
        for (unsigned i = 0; i < 5; ++i)
            for (unsigned j = i + 1; j < 5; ++j)
                EXPECT_NE(arb.hasPriority(i, j), arb.hasPriority(j, i));
    }
}

TEST(MatrixArbiter, DeltaReqCountsChangedLines)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).deltaReq, 2u);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1}, 4)).deltaReq, 0u);
    EXPECT_EQ(arb.arbitrate(reqs({2}, 4)).deltaReq, 3u);
}

TEST(MatrixArbiter, DeltaPriCountsToggledFlipFlops)
{
    MatrixArbiter arb(4);
    // Requester 0 starts above everyone; on winning, its 3 priority
    // pairs all flip.
    EXPECT_EQ(arb.arbitrate(reqs({0}, 4)).deltaPri, 3u);
    // Winning again flips nothing (already at the bottom).
    EXPECT_EQ(arb.arbitrate(reqs({0}, 4)).deltaPri, 0u);
}

TEST(RoundRobinArbiter, RotatesUnderContention)
{
    RoundRobinArbiter arb(3);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 0);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 1);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 2);
    EXPECT_EQ(arb.arbitrate(reqs({0, 1, 2}, 3)).winner, 0);
}

TEST(RoundRobinArbiter, SkipsIdleRequesters)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(reqs({2}, 4)).winner, 2);
    // Token now at 3; requester 1 is next in cyclic order.
    EXPECT_EQ(arb.arbitrate(reqs({1}, 4)).winner, 1);
}

TEST(RoundRobinArbiter, TokenMoveTogglesTwoFlipFlops)
{
    RoundRobinArbiter arb(4);
    const auto res = arb.arbitrate(reqs({0}, 4));
    EXPECT_EQ(res.winner, 0);
    EXPECT_EQ(res.deltaPri, 2u);
    EXPECT_EQ(arb.token(), 1u);
}

TEST(RoundRobinArbiter, NoWinnerKeepsToken)
{
    RoundRobinArbiter arb(4);
    arb.arbitrate(reqs({0}, 4));
    const unsigned tok = arb.token();
    const auto res = arb.arbitrate(reqs({}, 4));
    EXPECT_EQ(res.winner, -1);
    EXPECT_EQ(arb.token(), tok);
    EXPECT_EQ(res.deltaPri, 0u);
}

TEST(RoundRobinArbiter, IsFairUnderContention)
{
    RoundRobinArbiter arb(5);
    std::vector<int> grants(5, 0);
    for (int i = 0; i < 500; ++i) {
        const auto res = arb.arbitrate(reqs({0, 1, 2, 3, 4}, 5));
        ++grants[static_cast<unsigned>(res.winner)];
    }
    for (const int g : grants)
        EXPECT_EQ(g, 100);
}

// --- packed-word overload --------------------------------------------

/**
 * Twin arbiters of one kind, one driven through std::vector<bool> and
 * one through packed words built bit by bit here, see the same random
 * request stream (sparse, dense, empty and full sets) and must agree
 * on every winner and both activity deltas at every step. Widths
 * cover one partial word, a full word and a word boundary (96).
 */
void
expectPackedMatchesBool(ArbiterKind kind, unsigned width,
                        std::uint64_t seed)
{
    SCOPED_TRACE("width " + std::to_string(width));
    const auto by_bool = makeArbiter(kind, width);
    const auto by_word = makeArbiter(kind, width);
    ASSERT_EQ(by_word->wordCount(), (width + 63) / 64);
    orion::sim::Rng rng(seed);
    const double densities[] = {0.05, 0.3, 0.7, 0.0, 1.0};
    std::vector<bool> bits(width);
    std::vector<std::uint64_t> words(by_word->wordCount());
    for (int step = 0; step < 4000; ++step) {
        const double p = densities[(step / 50) % 5];
        std::fill(words.begin(), words.end(), 0);
        for (unsigned i = 0; i < width; ++i) {
            bits[i] = rng.chance(p);
            if (bits[i])
                words[i / 64] |= std::uint64_t{1} << (i % 64);
        }
        const ArbitrationResult a = by_bool->arbitrate(bits);
        const ArbitrationResult b = by_word->arbitrate(
            std::span<const std::uint64_t>(words));
        ASSERT_EQ(a.winner, b.winner) << "step " << step;
        ASSERT_EQ(a.deltaReq, b.deltaReq) << "step " << step;
        ASSERT_EQ(a.deltaPri, b.deltaPri) << "step " << step;
        if (a.winner >= 0)
            ASSERT_TRUE(bits[static_cast<unsigned>(a.winner)]);
        else
            ASSERT_EQ(std::count(bits.begin(), bits.end(), true), 0);
    }
}

TEST(PackedArbitration, MatrixMatchesBoolOverload)
{
    for (unsigned width : {4u, 8u, 64u, 96u})
        expectPackedMatchesBool(ArbiterKind::Matrix, width, 11 + width);
}

TEST(PackedArbitration, RoundRobinMatchesBoolOverload)
{
    for (unsigned width : {4u, 8u, 64u, 96u})
        expectPackedMatchesBool(ArbiterKind::RoundRobin, width,
                                23 + width);
}

TEST(PackedArbitration, QueuingMatchesBoolOverload)
{
    for (unsigned width : {4u, 8u, 64u, 96u})
        expectPackedMatchesBool(ArbiterKind::Queuing, width, 37 + width);
}

TEST(PackedArbitration, RoundRobinWrapsAcrossWords)
{
    // Token in the second word, only a first-word request pending:
    // the circular scan must wrap past the end and find it.
    RoundRobinArbiter arb(96);
    std::vector<std::uint64_t> words(2, 0);
    words[1] = std::uint64_t{1} << (70 - 64);
    EXPECT_EQ(arb.arbitrate(std::span<const std::uint64_t>(words)).winner,
              70);
    EXPECT_EQ(arb.token(), 71u);
    words = {std::uint64_t{1} << 3, 0};
    EXPECT_EQ(arb.arbitrate(std::span<const std::uint64_t>(words)).winner,
              3);
}

} // namespace
