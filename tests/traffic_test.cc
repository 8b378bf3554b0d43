/**
 * @file
 * Tests for the synthetic traffic generators: destination
 * distributions, injection rates, and per-pattern structure.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/traffic.hh"

namespace {

using namespace orion;
using namespace orion::net;

const Topology kTopo({4, 4}, true);

/** TrafficParams with only pattern and rate set (defaults elsewhere,
 * avoiding -Wmissing-field-initializers on aggregate init). */
TrafficParams
makeParams(TrafficPattern pattern, double rate)
{
    TrafficParams p;
    p.pattern = pattern;
    p.injectionRate = rate;
    return p;
}

TEST(UniformRandom, NeverSelfAndCoversAll)
{
    TrafficGenerator gen(kTopo, makeParams(TrafficPattern::UniformRandom, 0.1));
    sim::Rng rng(1);
    std::vector<int> counts(16, 0);
    for (int i = 0; i < 16000; ++i) {
        const int d = gen.pickDestination(5, rng);
        ASSERT_NE(d, 5);
        ASSERT_GE(d, 0);
        ASSERT_LT(d, 16);
        ++counts[static_cast<unsigned>(d)];
    }
    EXPECT_EQ(counts[5], 0);
    for (int n = 0; n < 16; ++n) {
        if (n == 5)
            continue;
        // ~1067 expected per destination.
        EXPECT_GT(counts[static_cast<unsigned>(n)], 850);
        EXPECT_LT(counts[static_cast<unsigned>(n)], 1300);
    }
}

TEST(UniformRandom, InjectionRateMatches)
{
    TrafficGenerator gen(kTopo, makeParams(TrafficPattern::UniformRandom, 0.2));
    sim::Rng rng(2);
    int injections = 0;
    const int cycles = 50000;
    for (int c = 0; c < cycles; ++c)
        if (gen.maybeInject(3, static_cast<sim::Cycle>(c), rng))
            ++injections;
    EXPECT_NEAR(static_cast<double>(injections) / cycles, 0.2, 0.01);
}

TEST(Broadcast, OnlySourceInjects)
{
    TrafficParams p = makeParams(TrafficPattern::Broadcast, 0.2);
    p.broadcastSource = kTopo.nodeAt({1, 2}); // paper's source node
    TrafficGenerator gen(kTopo, p);
    EXPECT_TRUE(gen.injects(kTopo.nodeAt({1, 2})));
    for (int n = 0; n < 16; ++n) {
        if (n != p.broadcastSource) {
            EXPECT_FALSE(gen.injects(n));
            EXPECT_DOUBLE_EQ(gen.nodeRate(n), 0.0);
        }
    }
    EXPECT_DOUBLE_EQ(gen.nodeRate(p.broadcastSource), 0.2);
}

TEST(Broadcast, CoversAllOtherNodesEvenly)
{
    TrafficParams p = makeParams(TrafficPattern::Broadcast, 0.2);
    p.broadcastSource = 6;
    TrafficGenerator gen(kTopo, p);
    sim::Rng rng(3);
    std::vector<int> counts(16, 0);
    for (int i = 0; i < 150; ++i)
        ++counts[static_cast<unsigned>(gen.pickDestination(6, rng))];
    EXPECT_EQ(counts[6], 0);
    for (int n = 0; n < 16; ++n) {
        if (n != 6) {
            EXPECT_EQ(counts[static_cast<unsigned>(n)], 10);
        }
    }
}

TEST(Transpose, SwapsCoordinates)
{
    TrafficGenerator gen(kTopo, makeParams(TrafficPattern::Transpose, 0.1));
    sim::Rng rng(4);
    EXPECT_EQ(gen.pickDestination(kTopo.nodeAt({1, 3}), rng),
              kTopo.nodeAt({3, 1}));
    // Diagonal nodes are silent.
    EXPECT_FALSE(gen.injects(kTopo.nodeAt({2, 2})));
    EXPECT_TRUE(gen.injects(kTopo.nodeAt({0, 1})));
}

TEST(BitComplement, MirrorsNodeId)
{
    TrafficGenerator gen(kTopo, makeParams(TrafficPattern::BitComplement, 0.1));
    sim::Rng rng(5);
    EXPECT_EQ(gen.pickDestination(0, rng), 15);
    EXPECT_EQ(gen.pickDestination(5, rng), 10);
}

TEST(Tornado, ShiftsHalfRadix)
{
    TrafficGenerator gen(kTopo, makeParams(TrafficPattern::Tornado, 0.1));
    sim::Rng rng(6);
    // floor((4-1)/2) = 1 shift per dimension.
    EXPECT_EQ(gen.pickDestination(kTopo.nodeAt({0, 0}), rng),
              kTopo.nodeAt({1, 1}));
    EXPECT_EQ(gen.pickDestination(kTopo.nodeAt({3, 2}), rng),
              kTopo.nodeAt({0, 3}));
}

TEST(NearestNeighbor, PlusXNeighbor)
{
    TrafficGenerator gen(kTopo, makeParams(TrafficPattern::NearestNeighbor, 0.1));
    sim::Rng rng(7);
    EXPECT_EQ(gen.pickDestination(kTopo.nodeAt({3, 1}), rng),
              kTopo.nodeAt({0, 1}));
}

TEST(Hotspot, ConcentratesTraffic)
{
    TrafficParams p = makeParams(TrafficPattern::Hotspot, 0.1);
    p.hotspotNode = 9;
    p.hotspotFraction = 0.5;
    TrafficGenerator gen(kTopo, p);
    sim::Rng rng(8);
    int to_hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (gen.pickDestination(2, rng) == 9)
            ++to_hot;
    // 50% directed + uniform share of the rest (~3.3%).
    EXPECT_NEAR(static_cast<double>(to_hot) / n, 0.533, 0.02);
}

TEST(Hotspot, HotNodeSendsUniform)
{
    TrafficParams p = makeParams(TrafficPattern::Hotspot, 0.1);
    p.hotspotNode = 9;
    TrafficGenerator gen(kTopo, p);
    sim::Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        ASSERT_NE(gen.pickDestination(9, rng), 9);
}

TEST(Permutations, MatchCoordinateReference)
{
    // The permutation patterns compute destinations by stride
    // arithmetic; check every node against the coordinate-vector
    // definition on square, rectangular and 3-D shapes.
    for (const Topology& topo :
         {Topology({4, 4}, true), Topology({5, 5}, false),
          Topology({3, 5, 4}, true), Topology({6, 2}, true)}) {
        for (const auto pattern :
             {TrafficPattern::Transpose, TrafficPattern::Tornado,
              TrafficPattern::NearestNeighbor}) {
            if (pattern == TrafficPattern::Transpose &&
                (topo.dimensions() != 2 || topo.radix(0) != topo.radix(1)))
                continue;
            TrafficGenerator gen(topo, makeParams(pattern, 0.1));
            sim::Rng rng(11);
            for (int node = 0; node < static_cast<int>(topo.numNodes());
                 ++node) {
                if (!gen.injects(node))
                    continue;
                Coord c = topo.coordsOf(node);
                if (pattern == TrafficPattern::Transpose) {
                    std::swap(c[0], c[1]);
                } else if (pattern == TrafficPattern::Tornado) {
                    for (unsigned d = 0; d < topo.dimensions(); ++d)
                        c[d] = (c[d] + (topo.radix(d) - 1) / 2) %
                               topo.radix(d);
                } else {
                    c[0] = (c[0] + 1) % topo.radix(0);
                }
                ASSERT_EQ(gen.pickDestination(node, rng), topo.nodeAt(c))
                    << "pattern " << static_cast<int>(pattern) << " node "
                    << node;
            }
        }
    }
}

TEST(AllPatterns, DestinationIsNeverSelf)
{
    for (const auto pattern :
         {TrafficPattern::UniformRandom, TrafficPattern::Broadcast,
          TrafficPattern::Transpose, TrafficPattern::BitComplement,
          TrafficPattern::Tornado, TrafficPattern::NearestNeighbor,
          TrafficPattern::Hotspot}) {
        TrafficParams p = makeParams(pattern, 0.1);
        p.broadcastSource = 3;
        TrafficGenerator gen(kTopo, p);
        sim::Rng rng(10);
        for (int node = 0; node < 16; ++node) {
            if (!gen.injects(node))
                continue;
            for (int i = 0; i < 50; ++i)
                ASSERT_NE(gen.pickDestination(node, rng), node);
        }
    }
}

} // namespace
