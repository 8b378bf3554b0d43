#include "net/traffic.hh"

#include <algorithm>
#include <cassert>

namespace orion::net {

TrafficGenerator::TrafficGenerator(const Topology& topo,
                                   const TrafficParams& params)
    : topo_(topo), params_(params), nextDest_(topo.numNodes(), 0)
{
    assert(params.injectionRate >= 0.0 && params.injectionRate <= 1.0);
    if (params_.pattern == TrafficPattern::Broadcast &&
        params_.broadcastSource < 0) {
        params_.broadcastSource = 0;
    }
    assert(params_.pattern != TrafficPattern::Transpose ||
           topo.dimensions() == 2);
    assert(params_.hotspotFraction >= 0.0 &&
           params_.hotspotFraction <= 1.0);

    if (params_.pattern == TrafficPattern::Trace) {
        assert(params_.trace && "Trace pattern needs records");
        Trace::validate(*params_.trace, topo.numNodes());
        pendingTrace_.resize(topo.numNodes());
        std::vector<TraceRecord> sorted = *params_.trace;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const TraceRecord& a, const TraceRecord& b) {
                             return a.cycle < b.cycle;
                         });
        for (const auto& r : sorted)
            pendingTrace_[static_cast<unsigned>(r.src)].push_back(r);
    }
}

bool
TrafficGenerator::injects(int node) const
{
    switch (params_.pattern) {
      case TrafficPattern::Broadcast:
        return node == params_.broadcastSource;
      case TrafficPattern::Transpose:
        return topo_.coordOf(node, 0) != topo_.coordOf(node, 1);
      case TrafficPattern::BitComplement:
        return node != static_cast<int>(topo_.numNodes()) - 1 - node;
      case TrafficPattern::Tornado: {
        // Silent only if every dimension's shift is zero (k <= 1,
        // which the topology forbids, or k == 2 where the shift is 0).
        for (unsigned d = 0; d < topo_.dimensions(); ++d)
            if ((topo_.radix(d) - 1) / 2 > 0)
                return true;
        return false;
      }
      case TrafficPattern::Hotspot:
        // The hot node itself still sends its uniform share.
        return topo_.numNodes() > 1;
      case TrafficPattern::Trace:
        return !pendingTrace_.empty() &&
               !pendingTrace_[static_cast<unsigned>(node)].empty();
      case TrafficPattern::UniformRandom:
      case TrafficPattern::NearestNeighbor:
        return topo_.numNodes() > 1;
    }
    return false;
}

double
TrafficGenerator::nodeRate(int node) const
{
    if (params_.pattern == TrafficPattern::Trace)
        return injects(node) ? -1.0 : 0.0; // rate is trace-defined
    return injects(node) ? params_.injectionRate : 0.0;
}

std::optional<int>
TrafficGenerator::maybeInject(int node, sim::Cycle now, sim::Rng& rng)
{
    if (params_.pattern == TrafficPattern::Trace) {
        auto& pending = pendingTrace_[static_cast<unsigned>(node)];
        if (pending.empty() || pending.front().cycle > now)
            return std::nullopt;
        const int dst = pending.front().dst;
        pending.pop_front();
        return dst;
    }
    const double rate = nodeRate(node);
    if (rate <= 0.0 || !rng.chance(rate))
        return std::nullopt;
    return pickDestination(node, rng);
}

int
TrafficGenerator::pickDestination(int node, sim::Rng& rng)
{
    const auto n = static_cast<int>(topo_.numNodes());
    assert(n > 1 && injects(node));

    switch (params_.pattern) {
      case TrafficPattern::UniformRandom: {
        // Uniform over the n-1 nodes other than the source.
        auto d = static_cast<int>(rng.below(n - 1));
        if (d >= node)
            ++d;
        return d;
      }
      case TrafficPattern::Broadcast: {
        // Round-robin over all other nodes so every destination
        // receives the same share ("one node injects packets to all
        // the other nodes in the network").
        auto& ptr = nextDest_[static_cast<unsigned>(node)];
        auto d = static_cast<int>(ptr);
        ptr = (ptr + 1) % (n - 1);
        if (d >= node)
            ++d;
        return d;
      }
      case TrafficPattern::Transpose: {
        Coord c = topo_.coordsOf(node);
        std::swap(c[0], c[1]);
        return topo_.nodeAt(c);
      }
      case TrafficPattern::BitComplement:
        return n - 1 - node;
      case TrafficPattern::Tornado: {
        Coord c = topo_.coordsOf(node);
        for (unsigned d = 0; d < topo_.dimensions(); ++d) {
            const unsigned k = topo_.radix(d);
            c[d] = (c[d] + (k - 1) / 2) % k;
        }
        return topo_.nodeAt(c);
      }
      case TrafficPattern::NearestNeighbor: {
        Coord c = topo_.coordsOf(node);
        c[0] = (c[0] + 1) % topo_.radix(0);
        return topo_.nodeAt(c);
      }
      case TrafficPattern::Hotspot: {
        if (node != params_.hotspotNode &&
            rng.chance(params_.hotspotFraction)) {
            return params_.hotspotNode;
        }
        auto d = static_cast<int>(rng.below(n - 1));
        if (d >= node)
            ++d;
        return d;
      }
      case TrafficPattern::Trace: {
        const auto& pending =
            pendingTrace_[static_cast<unsigned>(node)];
        assert(!pending.empty());
        return pending.front().dst;
      }
    }
    return (node + 1) % n;
}

} // namespace orion::net
