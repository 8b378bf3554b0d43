/**
 * @file
 * Source dimension-ordered routing (paper Section 4.1).
 *
 * "We choose simple source dimension-ordered routing where the route
 * is encoded in a packet beforehand at source." Dimension-ordered
 * routing "is where a packet always goes along one dimension first,
 * followed by another"; the paper's Section 4.3 analysis routes along
 * the y-axis first, which is the default order here.
 *
 * On a torus ring the minimal direction is chosen; exact half-way ties
 * are broken randomly per packet so traffic stays statistically
 * symmetric (this preserves the paper's Figure 6 symmetry arguments).
 *
 * Dateline deadlock avoidance exploits source routing: at route-build
 * time we know whether a ring traversal crosses the wraparound edge,
 * and assign the whole traversal VC class 1 if so, class 0 otherwise.
 * Within each class the ring's channel dependency graph is acyclic, so
 * the scheme is deadlock-free while letting both classes carry
 * traffic (see DESIGN.md).
 */

#ifndef ORION_NET_ROUTING_HH
#define ORION_NET_ROUTING_HH

#include <vector>

#include "net/topology.hh"
#include "router/flit.hh"
#include "router/router.hh"
#include "sim/rng.hh"

namespace orion::net {

/**
 * Direction choice for exact half-way ring ties.
 *
 * Random keeps traffic statistically symmetric (the paper's Figure 6
 * spatial-symmetry arguments rely on this). PreferWrap routes every
 * tie through the wraparound edge, which balances the two dateline VC
 * classes 50/50 (with random ties only ~1/3 of ring traffic crosses
 * the wrap, starving the class-1 VCs) — the right choice for
 * dateline-protected throughput studies.
 */
enum class TieBreak
{
    Random,
    PreferWrap,
};

/** Source-route builder for dimension-ordered routing. */
class DorRouting
{
  public:
    /**
     * @param topo       network topology
     * @param dim_order  dimension traversal order; default is
     *                   highest-dimension-first (y before x in 2D,
     *                   matching the paper's Section 4.3)
     * @param deadlock   VC-class discipline baked into routes
     * @param tie_break  half-way ring tie policy
     */
    DorRouting(const Topology& topo, std::vector<unsigned> dim_order,
               router::DeadlockMode deadlock,
               TieBreak tie_break = TieBreak::Random);

    /** Convenience: default (y-first) dimension order. */
    static std::vector<unsigned> defaultOrder(const Topology& topo);

    /**
     * Build the source route from @p src to @p dst (src != dst): one
     * RouteHop per router on the path, ending with the ejection hop at
     * the destination router. @p rng breaks half-way direction ties.
     */
    std::vector<router::RouteHop> route(int src, int dst,
                                        sim::Rng& rng) const;

    /**
     * route() into a caller-provided vector (cleared first), reusing
     * its capacity — the allocation-free path for pooled packets.
     */
    void routeInto(int src, int dst, sim::Rng& rng,
                   std::vector<router::RouteHop>& hops) const;

  private:
    const Topology& topo_;
    std::vector<unsigned> dimOrder_;
    router::DeadlockMode deadlock_;
    TieBreak tieBreak_;
    /** Longest minimal route, ejection hop included: a recycled
     * route vector reserved to it once never reallocates. */
    std::size_t maxHops_ = 1;
};

} // namespace orion::net

#endif // ORION_NET_ROUTING_HH
