#include "router/fifo.hh"

#include <algorithm>
#include <utility>

#include "core/check.hh"

namespace orion::router {

FlitFifo::FlitFifo(sim::EventBus& bus, int node, int component,
                   std::size_t capacity, unsigned flit_bits)
    : bus_(bus),
      node_(node),
      component_(component),
      capacity_(capacity),
      flitBits_(flit_bits),
      rowContents_(capacity, power::BitVec(flit_bits)),
      lastWritten_(flit_bits)
{
    assert(capacity > 0 && flit_bits > 0);
}

void
FlitFifo::grow()
{
    // Deep buffers (central-queue presets run hundreds of flits) would
    // waste memory if every VC preallocated its full depth, so the
    // ring starts empty and doubles toward capacity_ as occupancy
    // actually demands it. The first ring holds 8 flits, the depth of
    // the paper's VC buffers, so those fill it with one allocation.
    // Rebuild in front-to-back order so head_ restarts at slot 0.
    const std::size_t want =
        std::min(capacity_, std::max<std::size_t>(8, slots_.size() * 2));
    std::vector<Flit> bigger;
    bigger.reserve(want);
    for (std::size_t i = 0; i < count_; ++i)
        bigger.push_back(std::move(slots_[(head_ + i) % slots_.size()]));
    bigger.resize(want);
    slots_ = std::move(bigger);
    head_ = 0;
}

void
FlitFifo::write(Flit&& flit, sim::Cycle now)
{
    ORION_CHECK(!full(), "FIFO overflow (credit discipline violated) at "
                             << "node " << node_ << " component "
                             << component_ << " depth " << capacity_);
    assert(flit.payload.width() == flitBits_);

    const unsigned delta_bw =
        power::switchingWriteBitlines(flit.payload, lastWritten_);
    const unsigned delta_bc =
        power::flippedCells(flit.payload, rowContents_[writeRow_]);

    lastWritten_ = flit.payload;
    rowContents_[writeRow_] = flit.payload;
    if (++writeRow_ == capacity_)
        writeRow_ = 0;

    bus_.emit({sim::EventType::BufferWrite, node_, component_, delta_bw,
               delta_bc, now});
    if (count_ == slots_.size())
        grow();
    std::size_t tail = head_ + count_;
    if (tail >= slots_.size())
        tail -= slots_.size();
    slots_[tail] = std::move(flit);
    ++count_;
}

Flit
FlitFifo::read(sim::Cycle now)
{
    ORION_CHECK(!empty(), "FIFO underflow: read from empty buffer at "
                              << "node " << node_ << " component "
                              << component_);
    Flit f = std::move(slots_[head_]);
    ++head_;
    if (head_ == slots_.size())
        head_ = 0;
    --count_;
    bus_.emit({sim::EventType::BufferRead, node_, component_, 0, 0, now});
    return f;
}

} // namespace orion::router
