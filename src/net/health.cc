#include "net/health.hh"

#include <algorithm>
#include <cassert>
#include <deque>

#include "net/network.hh"

namespace orion::net {

HealthMonitor::HealthMonitor(const Topology& topo,
                             const std::vector<LinkRecord>& links,
                             const FaultInjector& injector,
                             router::DeadlockMode deadlock)
    : sim::Module("health", /*node=*/-1),
      topo_(topo),
      deadlock_(deadlock),
      outages_(injector.config().outages),
      linkIdByNodePort_(
          static_cast<std::size_t>(topo.numNodes()) *
              topo.portsPerRouter(),
          -1),
      linkDown_(injector.linkCount(), false)
{
    for (const LinkRecord& rec : links) {
        if (rec.kind != LinkRecord::Kind::InterRouter)
            continue;
        assert(rec.faultLinkId >= 0 &&
               "inter-router link missing a fault link id");
        linkIdByNodePort_[static_cast<std::size_t>(rec.fromNode) *
                              topo_.portsPerRouter() +
                          rec.fromPort] = rec.faultLinkId;
    }
    for (const OutageWindow& w : outages_) {
        assert(w.link >= 0 && "outage window not resolved to a link");
        boundaries_.push_back(w.start);
        boundaries_.push_back(w.end);
    }
    std::sort(boundaries_.begin(), boundaries_.end());
    boundaries_.erase(
        std::unique(boundaries_.begin(), boundaries_.end()),
        boundaries_.end());
}

void
HealthMonitor::cycle(sim::Cycle now)
{
    bool crossed = false;
    while (nextBoundary_ < boundaries_.size() &&
           boundaries_[nextBoundary_] <= now) {
        ++nextBoundary_;
        crossed = true;
    }
    if (crossed)
        recompute(now);
}

void
HealthMonitor::recompute(sim::Cycle now)
{
    std::vector<bool> down(linkDown_.size(), false);
    unsigned count = 0;
    for (const OutageWindow& w : outages_) {
        const auto link = static_cast<std::size_t>(w.link);
        if (w.start <= now && now < w.end && !down[link]) {
            down[link] = true;
            ++count;
        }
    }
    if (down != linkDown_) {
        linkDown_ = std::move(down);
        downCount_ = count;
        ++epoch_;
    }
}

bool
HealthMonitor::linkDown(int node, unsigned port) const
{
    if (port >= topo_.localPort())
        return false;
    const int id =
        linkIdByNodePort_[static_cast<std::size_t>(node) *
                              topo_.portsPerRouter() +
                          port];
    return id >= 0 && linkDown_[static_cast<std::size_t>(id)];
}

bool
HealthMonitor::routeHealthy(
    int src, const std::vector<router::RouteHop>& route) const
{
    int at = src;
    for (const router::RouteHop& hop : route) {
        if (hop.port == topo_.localPort())
            return true; // ejection: no link to check
        if (linkDown(at, hop.port))
            return false;
        at = topo_.neighbor(at, hop.port);
        assert(at >= 0 && "route walks off a mesh edge");
    }
    return true;
}

std::optional<std::vector<router::RouteHop>>
HealthMonitor::buildDetour(int src, int dst) const
{
    assert(src != dst);
    const unsigned n = topo_.numNodes();
    const unsigned local = topo_.localPort();

    // Deterministic BFS: nodes dequeue in FIFO order and ports are
    // scanned ascending, so the chosen shortest path is a pure
    // function of (topology, down-link set).
    std::vector<int> viaPort(n, -1);
    std::vector<int> parent(n, -1);
    std::deque<int> frontier{src};
    viaPort[static_cast<std::size_t>(src)] = static_cast<int>(local);
    while (!frontier.empty() &&
           viaPort[static_cast<std::size_t>(dst)] < 0) {
        const int at = frontier.front();
        frontier.pop_front();
        for (unsigned p = 0; p < local; ++p) {
            const int next = topo_.neighbor(at, p);
            if (next < 0 || viaPort[static_cast<std::size_t>(next)] >= 0)
                continue;
            if (linkDown(at, p))
                continue;
            viaPort[static_cast<std::size_t>(next)] =
                static_cast<int>(p);
            parent[static_cast<std::size_t>(next)] = at;
            frontier.push_back(next);
        }
    }
    if (viaPort[static_cast<std::size_t>(dst)] < 0)
        return std::nullopt; // partitioned

    // Walk back dst -> src, then reverse into hop order.
    std::vector<router::RouteHop> route;
    for (int at = dst; at != src;
         at = parent[static_cast<std::size_t>(at)]) {
        route.push_back(
            {static_cast<std::uint8_t>(
                 viaPort[static_cast<std::size_t>(at)]),
             0, false});
    }
    std::reverse(route.begin(), route.end());

    // Dateline VC classes per maximal same-dimension run, exactly as
    // DorRouting assigns them: the whole run rides class 1 when any of
    // its hops crosses the wraparound edge. newRing marks the first
    // hop of each run (bubble flow control's ring-entry check).
    int at = src;
    std::size_t run_start = 0;
    unsigned run_dim = topo_.portDimension(route[0].port);
    bool run_wraps = false;
    const auto close_run = [&](std::size_t run_end) {
        const bool dateline =
            deadlock_ == router::DeadlockMode::Dateline &&
            topo_.wrapped();
        const std::uint8_t cls = dateline && run_wraps ? 1 : 0;
        for (std::size_t i = run_start; i < run_end; ++i) {
            route[i].vcClass = cls;
            route[i].newRing = i == run_start;
        }
    };
    for (std::size_t i = 0; i < route.size(); ++i) {
        const unsigned port = route[i].port;
        const unsigned dim = topo_.portDimension(port);
        if (dim != run_dim) {
            close_run(i);
            run_start = i;
            run_dim = dim;
            run_wraps = false;
        }
        if (topo_.wrapped()) {
            const unsigned coord = topo_.coordOf(at, dim);
            const unsigned radix = topo_.radix(dim);
            if (topo_.portIsPlus(port) ? coord == radix - 1
                                       : coord == 0) {
                run_wraps = true;
            }
        }
        at = topo_.neighbor(at, port);
        assert(at >= 0);
    }
    close_run(route.size());
    assert(at == dst);

    route.push_back({static_cast<std::uint8_t>(local), 0, false});
    return route;
}

std::vector<unsigned>
HealthMonitor::downLinks() const
{
    std::vector<unsigned> out;
    for (std::size_t i = 0; i < linkDown_.size(); ++i)
        if (linkDown_[i])
            out.push_back(static_cast<unsigned>(i));
    return out;
}

} // namespace orion::net
