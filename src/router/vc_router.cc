#include "router/vc_router.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace orion::router {

CrossbarRouter::CrossbarRouter(std::string name, int node,
                               const RouterParams& params,
                               sim::EventBus& bus, bool va_enabled)
    : Router(std::move(name), node, params, bus),
      vaEnabled_(va_enabled),
      xbar_(bus, node, params.ports, params.ports, params.flitBits),
      rrNextVc_(params.ports, 0),
      vaScan_(params.ports, 0),
      stLatch_(params.ports),
      portFlits_(params.ports, 0),
      saCand_(params.ports)
{
    assert(va_enabled || params.vcs == 1);
    assert(params.ports <= 64 &&
           "SA request sets and output masks are one 64-bit word");

    const unsigned n_vcs = params.ports * params.vcs;
    fifos_.reserve(n_vcs);
    for (unsigned i = 0; i < n_vcs; ++i) {
        fifos_.emplace_back(bus, node, static_cast<int>(i),
                            params.bufferDepth, params.flitBits);
    }
    vcState_.resize(n_vcs);
    outVcBusy_.assign(n_vcs, 0);

    saArb_.reserve(params.ports);
    for (unsigned o = 0; o < params.ports; ++o)
        saArb_.push_back(makeArbiter(params.arbiterKind,
                                     params.ports - 1));

    if (vaEnabled_) {
        const unsigned va_reqs = (params.ports - 1) * params.vcs;
        vaArb_.reserve(n_vcs);
        for (unsigned i = 0; i < n_vcs; ++i)
            vaArb_.push_back(makeArbiter(params.arbiterKind, va_reqs));
        vaWords_ = vaArb_.front()->wordCount();
        vaBids_.assign(n_vcs * vaWords_, 0);
    }
}

const FlitFifo&
CrossbarRouter::inputFifo(unsigned port, unsigned vc) const
{
    assert(port < params_.ports && vc < params_.vcs);
    return fifos_[vcIndex(port, vc)];
}

bool
CrossbarRouter::outVcBusy(unsigned port, unsigned vc) const
{
    assert(port < params_.ports && vc < params_.vcs);
    return outVcBusy_[vcIndex(port, vc)] != 0;
}

std::size_t
CrossbarRouter::bufferedFlits() const
{
    std::size_t n = 0;
    for (const auto& fifo : fifos_)
        n += fifo.size();
    return n;
}

std::size_t
CrossbarRouter::latchedFlits() const
{
    std::size_t n = 0;
    for (const auto& slot : stLatch_)
        if (slot)
            ++n;
    return n;
}

std::size_t
CrossbarRouter::residentFlits() const
{
    return bufferedFlits() + latchedFlits();
}

std::size_t
CrossbarRouter::latchedForOutput(unsigned port, unsigned vc) const
{
    // The SA stage rewrites flit.vc to the downstream input VC before
    // latching, so the latched flit is matched against the downstream
    // VC the audit is balancing.
    const auto& slot = stLatch_[port];
    return slot && slot->flit.vc == vc ? 1 : 0;
}

void
CrossbarRouter::debugDropFlit(unsigned port, unsigned vc)
{
    assert(port < params_.ports && vc < params_.vcs);
    FlitFifo& fifo = fifoAt(port, vc);
    assert(!fifo.empty());
    // Keep the fast-path occupancy counters consistent so only the
    // conservation ledger — not internal bookkeeping — goes wrong.
    (void)fifo.read(/*now=*/0);
    --portFlits_[port];
    --totalFlits_;
}

bool
CrossbarRouter::vcWaitState(unsigned port, unsigned vc,
                            VcWaitState& out) const
{
    assert(port < params_.ports && vc < params_.vcs);
    const FlitFifo& fifo = fifos_[vcIndex(port, vc)];
    const VcState& st = vcState_[vcIndex(port, vc)];
    out = VcWaitState{};
    out.hasFront = !fifo.empty();
    out.phase = static_cast<int>(st.phase);
    out.outPort = st.outPort;
    out.outVc = st.outVc;
    out.vcClass = st.vcClass;
    if (out.hasFront) {
        const Flit& front = fifo.front();
        out.frontHead = front.head;
        out.packetId = front.packet->id;
        out.attempt = front.packet->attempt;
        out.createdAt = front.packet->createdAt;
        // An Idle VC with a head at the front is waiting to enter VC
        // allocation (or, in wormhole mode, to claim the output at
        // SA): surface the requested output from the source route so
        // the detector can draw its wait edge.
        if (st.phase == VcState::Phase::Idle && front.head) {
            const RouteHop& hop = front.routeHop();
            out.outPort = hop.port;
            out.vcClass = hop.vcClass;
        }
    }
    return true;
}

bool
CrossbarRouter::poisonBlockedWorm(unsigned port, unsigned vc,
                                  sim::Cycle now)
{
    assert(port < params_.ports && vc < params_.vcs);
    if (!faultHooks_)
        return false;
    FlitFifo& fifo = fifoAt(port, vc);
    // Only a VC whose front is a worm head can be poisoned cleanly:
    // nothing of this attempt is buffered downstream, so discarding
    // the local run plus arming drop-until-tail for the in-flight
    // remainder removes the whole attempt. Every wait-for cycle has at
    // least one such VC (a body-front VC's head was forwarded onward,
    // so the chain of body-front VCs terminates at a head-front one).
    if (fifo.empty() || !fifo.front().head)
        return false;
    VcState& st = vcStateAt(port, vc);
    const auto pkt = fifo.front().packet;
    const unsigned attempt = pkt->attempt;
    if (st.phase == VcState::Phase::Active)
        outVcBusy_[vcIndex(st.outPort, st.outVc)] = false;
    st.reset();
    faultHooks_->onPacketKilled(pkt, now);
    // Discard the contiguous buffered run of this attempt, returning
    // one upstream credit per freed slot. These flits were already
    // counted in flitsArrived_ when buffered, so only the discard side
    // of the conservation ledger moves.
    bool saw_tail = false;
    while (!fifo.empty()) {
        const Flit& front = fifo.front();
        if (front.packet->id != pkt->id ||
            front.packet->attempt != attempt) {
            break;
        }
        const Flit flit = fifo.read(now);
        saw_tail = flit.tail;
        --portFlits_[port];
        --totalFlits_;
        ++flitsDiscarded_;
        sendCreditUpstream(port, vc, now);
        faultHooks_->onFlitDiscarded(flit, now);
        if (saw_tail)
            break;
    }
    if (!saw_tail)
        armDropUntilTail(port, vc, pkt->id, attempt);
    return true;
}

void
CrossbarRouter::cycle(sim::Cycle now)
{
    // Skip-quiescent fast path: with no buffered flits, no occupied
    // ST latch, no deferred credits and no message readable on any
    // input (flit or credit — the links' wake flags cover both), every
    // stage below is a no-op that emits nothing and mutates nothing,
    // so the cycle can be skipped without changing any observable
    // state. At low load most routers idle most cycles; this turns
    // their cost into four scalar tests.
    if (!inputPending_ && totalFlits_ == 0 && latchedCount_ == 0 &&
        pendingCreditTotal_ == 0) {
        return;
    }
    inputPending_ = false;
    receiveCredits();
    drainPendingCredits(now);
    stStage(now);
    if (vaEnabled_ && params_.speculative) {
        // Speculative pipeline: VA runs before SA within the cycle,
        // so a freshly allocated head can bid for (and win) the
        // switch immediately — VA and SA share a pipeline stage.
        vaStage(now);
        saStage(now);
    } else {
        saStage(now);
        if (vaEnabled_)
            vaStage(now);
    }
    bwStage(now);
}

void
CrossbarRouter::stStage(sim::Cycle now)
{
    for (unsigned o = 0; o < params_.ports; ++o) {
        if (!stLatch_[o])
            continue;
        // Scheduled port-stall fault: the flit stays latched (and SA
        // will not refill the occupied latch) until the stall lifts.
        if (faultHooks_ && faultHooks_->portStalled(node(), o, now))
            continue;
        StEntry& entry = *stLatch_[o];
        xbar_.traverse(entry.inPort, o, entry.flit, now);
        assert(outLinks_[o] && "flit routed to unconnected output");
        outLinks_[o]->send(std::move(entry.flit), bus_, now);
        stLatch_[o].reset();
        --latchedCount_;
        ++flitsForwarded_;
    }
}

std::pair<unsigned, unsigned>
CrossbarRouter::classVcRange(unsigned cls) const
{
    if (params_.deadlock == DeadlockMode::Dateline) {
        const unsigned half = params_.vcs / 2;
        return cls == 0 ? std::pair<unsigned, unsigned>{0u, half}
                        : std::pair<unsigned, unsigned>{half, params_.vcs};
    }
    return {0u, params_.vcs};
}

std::optional<CrossbarRouter::Candidate>
CrossbarRouter::pickCandidate(unsigned p)
{
    if (portFlits_[p] == 0)
        return std::nullopt;
    const unsigned vcs = params_.vcs;
    for (unsigned k = 0, v = rrNextVc_[p]; k < vcs;
         ++k, v = v + 1 == vcs ? 0 : v + 1) {
        FlitFifo& fifo = fifoAt(p, v);
        if (fifo.empty())
            continue;
        VcState& st = vcStateAt(p, v);
        const Flit& front = fifo.front();

        if (st.phase == VcState::Phase::Active) {
            // VC routers do their bubble-rule space reservation at VA
            // (an empty VC was reserved for the whole packet), so SA
            // only needs one credit; wormhole routers enforce the
            // flit-granular bubble rule here.
            const unsigned need =
                vaEnabled_
                    ? 1
                    : requiredSpace(front.head, st.newRing, st.outPort);
            if (outputCredits(st.outPort, st.outVc) >= need)
                return Candidate{v, st.outPort, st.outVc, false};
            continue;
        }

        // Wormhole mode: route setup and output claim happen at SA.
        if (!vaEnabled_ && st.phase == VcState::Phase::Idle &&
            front.head) {
            const RouteHop& hop = front.routeHop();
            const unsigned o = hop.port;
            assert(o != p && "u-turn in route");
            if (outVcBusy_[vcIndex(o, 0)])
                continue;
            const unsigned need =
                requiredSpace(true, hop.newRing, o);
            if (outputCredits(o, 0) >= need)
                return Candidate{v, o, 0, true};
        }
    }
    return std::nullopt;
}

void
CrossbarRouter::saStage(sim::Cycle now)
{
    if (totalFlits_ == 0)
        return;
    const unsigned ports = params_.ports;

    auto& cand = saCand_;
    unsigned requesters = 0;
    // Outputs with at least one candidate, as a bitmask (ports is
    // 2 * dims + 1, far below 64): the arbitration loop below then
    // visits only contested outputs — usually one — instead of
    // scanning every port's candidates for every output.
    std::uint64_t out_pending = 0;
    for (unsigned p = 0; p < ports; ++p) {
        cand[p] = pickCandidate(p);
        if (cand[p]) {
            ++requesters;
            out_pending |= std::uint64_t{1} << cand[p]->outPort;
        }
    }
    unsigned granted = 0;

    while (out_pending != 0) {
        const unsigned o =
            static_cast<unsigned>(std::countr_zero(out_pending));
        out_pending &= out_pending - 1;
        // A port-stall fault leaves the ST latch occupied; don't
        // arbitrate for an output that can't accept a new flit.
        if (stLatch_[o])
            continue;
        std::uint64_t reqs = 0;
        for (unsigned p = 0; p < ports; ++p) {
            if (p == o || !cand[p] || cand[p]->outPort != o)
                continue;
            reqs |= std::uint64_t{1} << saRequester(p, o);
        }

        const ArbitrationResult res =
            saArb_[o]->arbitrate(std::span(&reqs, 1));
        assert(res.winner >= 0);
        bus_.emit({sim::EventType::Arbitration, node(),
                   static_cast<int>(o), res.deltaReq, res.deltaPri,
                   now});

        // Undo the u-turn-free requester mapping.
        unsigned p = static_cast<unsigned>(res.winner);
        if (p >= o)
            ++p;
        const Candidate& c = *cand[p];
        VcState& st = vcStateAt(p, c.vc);

        if (c.claimOnGrant) {
            // Wormhole: the head claims the output for the packet.
            assert(!outVcBusy_[vcIndex(o, c.outVc)]);
            const RouteHop& hop = fifoAt(p, c.vc).front().routeHop();
            st.phase = VcState::Phase::Active;
            st.outPort = hop.port;
            st.outVc = static_cast<std::uint8_t>(c.outVc);
            st.newRing = hop.newRing;
            outVcBusy_[vcIndex(o, c.outVc)] = true;
        }

        Flit flit = fifoAt(p, c.vc).read(now);
        --portFlits_[p];
        --totalFlits_;
        outputCredits_[o]->consume(c.outVc);
        sendCreditUpstream(p, c.vc, now);

        flit.vc = static_cast<std::uint8_t>(c.outVc);
        if (flit.hop + 1 < flit.packet->route.size())
            ++flit.hop;

        if (flit.tail) {
            outVcBusy_[vcIndex(o, st.outVc)] = false;
            st.reset();
        }

        assert(!stLatch_[o]);
        stLatch_[o] = StEntry{std::move(flit), p};
        ++latchedCount_;
        rrNextVc_[p] = c.vc + 1 == params_.vcs ? 0 : c.vc + 1;
        ++granted;
    }
    saStalls_ += requesters - granted;
}

void
CrossbarRouter::vaStage(sim::Cycle now)
{
    if (totalFlits_ == 0)
        return;
    const unsigned ports = params_.ports;
    const unsigned vcs = params_.vcs;

    // 1. Heads newly at the front of their FIFOs enter WaitingVc.
    //    The scan also counts the waiting VCs step 2 bids for; with
    //    none, steps 2 and 3 have nothing to do.
    unsigned waiting = 0;
    for (unsigned p = 0; p < ports; ++p) {
        if (portFlits_[p] == 0)
            continue;
        for (unsigned v = 0; v < vcs; ++v) {
            VcState& st = vcStateAt(p, v);
            if (st.phase == VcState::Phase::WaitingVc) {
                ++waiting;
                continue;
            }
            const FlitFifo& fifo = fifoAt(p, v);
            if (st.phase != VcState::Phase::Idle || fifo.empty() ||
                !fifo.front().head) {
                continue;
            }
            const RouteHop& hop = fifo.front().routeHop();
            assert(hop.port != p && "u-turn in route");
            st.phase = VcState::Phase::WaitingVc;
            st.outPort = hop.port;
            st.vcClass = hop.vcClass;
            st.newRing = hop.newRing;
            ++waiting;
        }
    }
    if (waiting == 0)
        return;

    // 2. Each waiting input VC bids for one free output VC of its
    //    class; the bids per (output port, output VC) form that
    //    output VC's packed VA request set.
    //
    //    Bubble mode (slot-granular virtual cut-through): a head may
    //    only be allocated a *completely empty* downstream VC (atomic
    //    VC allocation — the whole packet fits, VCT), and entering a
    //    new ring additionally demands that a second downstream VC be
    //    empty, so every ring always retains a free packet-slot
    //    bubble. This is deadlock-free on tori without splitting the
    //    VCs into dateline classes.
    //
    //    Every bid set is empty on entry: step 3 clears the sets of
    //    each output it visits, and only those outputs hold bids.
    const bool bubble = params_.deadlock == DeadlockMode::Bubble;
    const std::size_t words = vaWords_;
    const auto bids = [&](unsigned o, unsigned ov) {
        return std::span<std::uint64_t>(
            &vaBids_[vcIndex(o, ov) * words], words);
    };
    std::uint64_t bid_outputs = 0;
    for (unsigned p = 0; p < ports; ++p) {
        if (portFlits_[p] == 0)
            continue;
        for (unsigned v = 0; v < vcs; ++v) {
            VcState& st = vcStateAt(p, v);
            if (st.phase != VcState::Phase::WaitingVc)
                continue;
            const auto [first, last] = classVcRange(st.vcClass);
            const unsigned span = last - first;
            assert(span > 0);
            const unsigned o = st.outPort;
            for (unsigned k = 0, i = vaScan_[o] % span; k < span;
                 ++k, i = i + 1 == span ? 0 : i + 1) {
                const unsigned ov = first + i;
                if (outVcBusy_[vcIndex(o, ov)])
                    continue;
                if (bubble && !isLocalPort(o) &&
                    !outputCredits_[o]->empty(ov)) {
                    continue;
                }
                const unsigned r = vaRequester(p, v, o);
                bids(o, ov)[r / 64] |= std::uint64_t{1} << (r % 64);
                bid_outputs |= std::uint64_t{1} << o;
                break;
            }
        }
    }

    // Downstream packet-slots still free at output @p o: completely
    // empty VCs not already reserved by an earlier grant (busy flags
    // are updated live as this cycle's grants land).
    const auto free_slots = [&](unsigned o) {
        unsigned n = 0;
        for (unsigned ov = 0; ov < vcs; ++ov) {
            if (!outVcBusy_[vcIndex(o, ov)] &&
                outputCredits_[o]->empty(ov)) {
                ++n;
            }
        }
        return n;
    };

    // 3. Arbitrate each contested output VC, enforcing the bubble
    //    slot budget against grants already made this cycle.
    //    Contested outputs go in index order: event order and the
    //    bubble budget depend on it.
    while (bid_outputs != 0) {
        const unsigned o =
            static_cast<unsigned>(std::countr_zero(bid_outputs));
        bid_outputs &= bid_outputs - 1;
        bool granted_any = false;
        for (unsigned ov = 0; ov < vcs; ++ov) {
            const std::span<std::uint64_t> reqs = bids(o, ov);
            const auto none = [&] {
                return std::all_of(reqs.begin(), reqs.end(),
                                   [](std::uint64_t w) { return w == 0; });
            };
            if (none())
                continue;
            if (bubble && !isLocalPort(o)) {
                // Target slot must still be free, and ring entries
                // must leave a bubble behind.
                const unsigned remaining = free_slots(o);
                if (remaining == 0)
                    continue;
                if (remaining < 2) {
                    for (std::size_t k = 0; k < words; ++k) {
                        for (std::uint64_t m = reqs[k]; m != 0;
                             m &= m - 1) {
                            const unsigned r =
                                static_cast<unsigned>(k) * 64 +
                                static_cast<unsigned>(
                                    std::countr_zero(m));
                            const auto [p, v] = vaRequesterVc(r, o);
                            if (vcStateAt(p, v).newRing)
                                reqs[k] &= ~(std::uint64_t{1} << (r % 64));
                        }
                    }
                    if (none())
                        continue;
                }
            }
            const ArbitrationResult res =
                vaArb_[vcIndex(o, ov)]->arbitrate(
                    std::span<const std::uint64_t>(reqs));
            assert(res.winner >= 0);
            bus_.emit({sim::EventType::VcAllocation, node(),
                       static_cast<int>(o * vcs + ov), res.deltaReq,
                       res.deltaPri, now});

            const auto [p, v] =
                vaRequesterVc(static_cast<unsigned>(res.winner), o);
            VcState& st = vcStateAt(p, v);
            assert(st.phase == VcState::Phase::WaitingVc);
            st.phase = VcState::Phase::Active;
            st.outVc = static_cast<std::uint8_t>(ov);
            outVcBusy_[vcIndex(o, ov)] = true;
            granted_any = true;
        }
        std::fill_n(bids(o, 0).begin(), vcs * words, 0);
        if (granted_any)
            vaScan_[o] = vaScan_[o] + 1 == vcs ? 0 : vaScan_[o] + 1;
    }
}

void
CrossbarRouter::bwStage(sim::Cycle now)
{
    for (unsigned p = 0; p < params_.ports; ++p) {
        FlitLink* in = inLinks_[p];
        if (!in || !in->valid())
            continue;
        Flit flit = in->read();
        if (faultHooks_ &&
            screenArrival(p, flit, now) == ArrivalAction::Discard) {
            continue;
        }
        assert(flit.vc < params_.vcs);
        assert(!fifoAt(p, flit.vc).full() &&
               "credit discipline violated: buffer overflow");
        fifoAt(p, flit.vc).write(std::move(flit), now);
        ++portFlits_[p];
        ++totalFlits_;
        ++flitsArrived_;
    }
}

} // namespace orion::router
