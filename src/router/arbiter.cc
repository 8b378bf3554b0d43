#include "router/arbiter.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "power/activity.hh"

namespace orion::router {

Arbiter::Arbiter(unsigned requests)
    : requests_(requests),
      lastWords_(wordsFor(requests), 0)
{
    assert(requests > 0);
}

ArbitrationResult
Arbiter::arbitrate(const std::vector<bool>& reqs)
{
    assert(reqs.size() == requests_);
    packed_.resize(wordsFor(requests_));
    for (std::size_t k = 0; k < packed_.size(); ++k) {
        const unsigned base = static_cast<unsigned>(k) * 64;
        const unsigned top = std::min(requests_ - base, 64u);
        std::uint64_t w = 0;
        for (unsigned b = 0; b < top; ++b)
            w |= static_cast<std::uint64_t>(reqs[base + b]) << b;
        packed_[k] = w;
    }
    return arbitrate(std::span<const std::uint64_t>(packed_));
}

unsigned
Arbiter::requestDelta(std::span<const std::uint64_t> reqs)
{
    assert(reqs.size() == lastWords_.size());
    // Requesters above requests() do not exist; their bits stay clear.
    assert(requests_ % 64 == 0 ||
           (reqs.back() >> (requests_ % 64)) == 0);
    unsigned delta = 0;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        delta += power::popcount64(reqs[k] ^ lastWords_[k]);
        lastWords_[k] = reqs[k];
    }
    return delta;
}

MatrixArbiter::MatrixArbiter(unsigned requests)
    : Arbiter(requests),
      prio_(2 * requests * wordsFor(requests), 0)
{
    // Initial total order: lower index beats higher index.
    for (unsigned i = 0; i < requests; ++i) {
        for (unsigned j = i + 1; j < requests; ++j) {
            row(i)[j / 64] |= std::uint64_t{1} << (j % 64);
            col(j)[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

bool
MatrixArbiter::hasPriority(unsigned i, unsigned j) const
{
    assert(i < requests_ && j < requests_ && i != j);
    return (prio_[i * wordCount() + j / 64] >> (j % 64)) & 1;
}

ArbitrationResult
MatrixArbiter::arbitrate(std::span<const std::uint64_t> reqs)
{
    const unsigned delta_req = requestDelta(reqs);
    const std::size_t words = reqs.size();

    // grant_i = req_i AND no other pending request has priority over i:
    // one AND of the request set against i's beaten-by column. The
    // matrix encodes a total order, so scanning requesters in index
    // order finds the unique unbeaten one regardless of order.
    int winner = -1;
    for (std::size_t k = 0; k < words && winner < 0; ++k) {
        std::uint64_t pending = reqs[k];
        while (pending != 0) {
            const unsigned i = static_cast<unsigned>(k) * 64 +
                               std::countr_zero(pending);
            pending &= pending - 1;
            const std::uint64_t* beats = col(i);
            std::uint64_t beaten = 0;
            for (std::size_t m = 0; m < words; ++m)
                beaten |= reqs[m] & beats[m];
            if (beaten == 0) {
                winner = static_cast<int>(i);
                break;
            }
        }
    }
    // The priority matrix encodes a total order, so an asserted request
    // set always has exactly one unbeaten member.
    assert(winner >= 0 ||
           std::all_of(reqs.begin(), reqs.end(),
                       [](std::uint64_t w) { return w == 0; }));

    unsigned delta_pri = 0;
    if (winner >= 0) {
        // Winner drops below everyone: its row empties into the rows
        // and columns of every requester it used to beat (each such
        // pair toggles two flip-flops of one priority bit).
        const auto w = static_cast<unsigned>(winner);
        std::uint64_t* w_row = row(w);
        std::uint64_t* w_col = col(w);
        for (std::size_t k = 0; k < words; ++k) {
            std::uint64_t lost = w_row[k];
            if (lost == 0)
                continue;
            delta_pri += power::popcount64(lost);
            w_col[k] |= lost;
            w_row[k] = 0;
            const std::uint64_t w_bit = std::uint64_t{1} << (w % 64);
            while (lost != 0) {
                const unsigned j = static_cast<unsigned>(k) * 64 +
                                   std::countr_zero(lost);
                lost &= lost - 1;
                row(j)[w / 64] |= w_bit;
                col(j)[w / 64] &= ~w_bit;
            }
        }
    }
    return {winner, delta_req, delta_pri};
}

RoundRobinArbiter::RoundRobinArbiter(unsigned requests)
    : Arbiter(requests)
{
}

QueuingArbiter::QueuingArbiter(unsigned requests)
    : Arbiter(requests), queued_(wordsFor(requests), 0)
{
}

ArbitrationResult
QueuingArbiter::arbitrate(std::span<const std::uint64_t> reqs)
{
    const unsigned delta_req = requestDelta(reqs);

    // Newly asserted requesters join the queue in index order (ties
    // within one cycle are broken by requester index).
    unsigned delta_pri = 0;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        std::uint64_t joining = reqs[k] & ~queued_[k];
        queued_[k] |= joining;
        while (joining != 0) {
            queue_.push_back(static_cast<unsigned>(k) * 64 +
                             std::countr_zero(joining));
            joining &= joining - 1;
            ++delta_pri; // one queue write per enqueued id
        }
    }

    // Serve the oldest still-asserted request; withdrawn requests at
    // the front are discarded.
    int winner = -1;
    while (!queue_.empty()) {
        const unsigned front = queue_.front();
        queue_.pop_front();
        const std::uint64_t bit = std::uint64_t{1} << (front % 64);
        queued_[front / 64] &= ~bit;
        if (reqs[front / 64] & bit) {
            winner = static_cast<int>(front);
            break;
        }
    }
    return {winner, delta_req, delta_pri};
}

std::unique_ptr<Arbiter>
makeArbiter(ArbiterKind kind, unsigned requests)
{
    switch (kind) {
      case ArbiterKind::Matrix:
        return std::make_unique<MatrixArbiter>(requests);
      case ArbiterKind::RoundRobin:
        return std::make_unique<RoundRobinArbiter>(requests);
      case ArbiterKind::Queuing:
        return std::make_unique<QueuingArbiter>(requests);
    }
    return std::make_unique<MatrixArbiter>(requests);
}

ArbitrationResult
RoundRobinArbiter::arbitrate(std::span<const std::uint64_t> reqs)
{
    const unsigned delta_req = requestDelta(reqs);

    // The first asserted request at or after the token, in circular
    // order: the token's word from the token up, the later words, the
    // earlier words, and last the token word's bits below the token.
    int winner = -1;
    const std::size_t words = reqs.size();
    const std::size_t token_word = token_ / 64;
    const std::uint64_t from_token = ~std::uint64_t{0} << (token_ % 64);
    for (std::size_t step = 0; step <= words; ++step) {
        const std::size_t k = (token_word + step) % words;
        std::uint64_t w = reqs[k];
        if (step == 0)
            w &= from_token;
        else if (step == words)
            w &= ~from_token;
        if (w != 0) {
            winner = static_cast<int>(k * 64 +
                                      static_cast<unsigned>(
                                          std::countr_zero(w)));
            break;
        }
    }

    unsigned delta_pri = 0;
    if (winner >= 0) {
        unsigned next = static_cast<unsigned>(winner) + 1;
        if (next == requests_)
            next = 0;
        if (next != token_) {
            // One-hot token moves: two flip-flops toggle.
            delta_pri = 2;
            token_ = next;
        }
    }
    return {winner, delta_req, delta_pri};
}

} // namespace orion::router
