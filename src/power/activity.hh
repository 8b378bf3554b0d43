/**
 * @file
 * Switching-activity helpers.
 *
 * The paper: "Throughout our power models, the switching activity
 * factors delta_x are monitored and calculated through simulation."
 * Flits in the simulator carry real payload bits; these helpers turn
 * pairs of payloads into the delta counts the energy equations consume
 * (number of switching write bitlines, number of flipped memory cells,
 * number of toggling crossbar/link wires).
 */

#ifndef ORION_POWER_ACTIVITY_HH
#define ORION_POWER_ACTIVITY_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>

namespace orion::power {

/**
 * Number of set bits in @p x: the one popcount of the simulator.
 *
 * Branch-free SWAR (bit-sliced) count. The build targets baseline
 * x86-64, which has no POPCNT instruction, so std::popcount there is a
 * call into libgcc; every Hamming distance, request delta and priority
 * toggle count sits on the per-flit-hop path, where that call costs
 * more than the dozen ALU operations below. orion_analyze's
 * `one-popcount` rule keeps every other popcount out of src/.
 */
constexpr unsigned
popcount64(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/**
 * A fixed-width bit vector holding the payload of one flit (or any
 * datapath word the power models track). Width is in bits; storage is
 * little-endian 64-bit words with unused high bits kept at zero.
 *
 * Widths up to 256 bits (every configuration in the paper) live in
 * inline storage — no heap allocation per flit; wider vectors fall
 * back to a heap buffer.
 */
class BitVec
{
  public:
    BitVec() : width_(0), words_(0) {}

    /** An all-zero vector of @p width bits. */
    explicit BitVec(unsigned width);

    /** A vector of @p width bits whose low word is @p low_word. */
    BitVec(unsigned width, std::uint64_t low_word);

    // Copies and moves run several times per flit hop (FIFO rows, the
    // write-driver and link/crossbar history registers, channel
    // staging), so the inline-storage case is defined here; only a
    // heap payload (> 256 bits) takes the out-of-line path.
    BitVec(const BitVec& o)
        : width_(o.width_), words_(o.words_), inline_(o.inline_)
    {
        if (o.heap_)
            copyHeapFrom(o);
    }

    BitVec(BitVec&& o) noexcept
        : width_(o.width_),
          words_(o.words_),
          inline_(o.inline_),
          heap_(std::move(o.heap_))
    {
        o.width_ = 0;
        o.words_ = 0;
    }

    BitVec&
    operator=(const BitVec& o)
    {
        if (heap_ || o.heap_) {
            assignSlow(o);
            return *this;
        }
        width_ = o.width_;
        words_ = o.words_;
        inline_ = o.inline_;
        return *this;
    }

    BitVec&
    operator=(BitVec&& o) noexcept
    {
        if (this == &o)
            return *this;
        width_ = o.width_;
        words_ = o.words_;
        inline_ = o.inline_;
        heap_ = std::move(o.heap_);
        o.width_ = 0;
        o.words_ = 0;
        return *this;
    }

    ~BitVec() = default;

    unsigned width() const { return width_; }

    /** Number of 64-bit storage words. */
    std::size_t wordCount() const { return words_; }

    std::uint64_t word(std::size_t i) const { return data()[i]; }

    /** Set storage word @p i (masked to the declared width). */
    void
    setWord(std::size_t i, std::uint64_t v)
    {
        assert(i < words_);
        data()[i] = v;
        maskTop();
    }

    bool bit(unsigned i) const;
    void setBit(unsigned i, bool v);

    /** Number of set bits. */
    unsigned
    popcount() const
    {
        unsigned n = 0;
        const std::uint64_t* w = data();
        for (std::size_t i = 0; i < words_; ++i)
            n += popcount64(w[i]);
        return n;
    }

    bool operator==(const BitVec& o) const;

    const std::uint64_t*
    data() const
    {
        return heap_ ? heap_.get() : inline_.data();
    }

    std::uint64_t*
    data()
    {
        return heap_ ? heap_.get() : inline_.data();
    }

  private:
    static constexpr std::size_t kInlineWords = 4; // up to 256 bits

    void
    maskTop()
    {
        const unsigned rem = width_ % 64;
        if (rem != 0 && words_ > 0)
            data()[words_ - 1] &= (std::uint64_t{1} << rem) - 1;
    }
    /** Copy-construction tail for a heap source. */
    void copyHeapFrom(const BitVec& o);
    /** Copy assignment when either side holds a heap buffer. */
    void assignSlow(const BitVec& o);

    unsigned width_;
    std::uint32_t words_;
    /** Inline storage; all zero while heap_ holds the words. */
    std::array<std::uint64_t, kInlineWords> inline_{};
    std::unique_ptr<std::uint64_t[]> heap_;
};

/**
 * Hamming distance between two equal-width bit vectors: the number of
 * wires that toggle when the datapath value changes from @p a to @p b.
 * Inline: every buffer write/read and link traversal computes one of
 * these, so the XOR/popcount loop sits on the cycle kernel's hot path.
 */
inline unsigned
hammingDistance(const BitVec& a, const BitVec& b)
{
    assert(a.width() == b.width());
    unsigned n = 0;
    const std::uint64_t* wa = a.data();
    const std::uint64_t* wb = b.data();
    for (std::size_t i = 0; i < a.wordCount(); ++i)
        n += popcount64(wa[i] ^ wb[i]);
    return n;
}

/**
 * Number of switching write bitlines (delta_bw of Table 2).
 *
 * Write bitlines are driven with the new datum; a bitline pair switches
 * when the bit being written differs from the value the write driver
 * held from the previous write.
 */
inline unsigned
switchingWriteBitlines(const BitVec& new_data, const BitVec& last_written)
{
    return hammingDistance(new_data, last_written);
}

/**
 * Number of flipped memory cells (delta_bc of Table 2): bits of the new
 * datum that differ from the old contents of the target row.
 */
inline unsigned
flippedCells(const BitVec& new_data, const BitVec& old_row)
{
    return hammingDistance(new_data, old_row);
}

} // namespace orion::power

#endif // ORION_POWER_ACTIVITY_HH
