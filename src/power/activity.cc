#include "power/activity.hh"

#include <algorithm>
#include <cassert>

namespace orion::power {

BitVec::BitVec(unsigned width)
    : width_(width),
      words_(static_cast<std::uint32_t>((width + 63) / 64))
{
    if (words_ > kInlineWords)
        heap_ = std::make_unique<std::uint64_t[]>(words_);
    std::fill_n(data(), words_, 0ull);
}

BitVec::BitVec(unsigned width, std::uint64_t low_word)
    : BitVec(width)
{
    if (words_ > 0) {
        data()[0] = low_word;
        maskTop();
    }
}

void
BitVec::copyHeapFrom(const BitVec& o)
{
    heap_ = std::make_unique<std::uint64_t[]>(words_);
    std::copy_n(o.heap_.get(), words_, heap_.get());
}

void
BitVec::assignSlow(const BitVec& o)
{
    if (this == &o)
        return;
    if (o.heap_) {
        // Reuse an existing heap buffer of sufficient size.
        if (!heap_ || words_ < o.words_)
            heap_ = std::make_unique<std::uint64_t[]>(o.words_);
        std::copy_n(o.heap_.get(), o.words_, heap_.get());
        inline_.fill(0);
    } else {
        heap_.reset();
        inline_ = o.inline_;
    }
    width_ = o.width_;
    words_ = o.words_;
}

bool
BitVec::operator==(const BitVec& o) const
{
    if (width_ != o.width_)
        return false;
    return std::equal(data(), data() + words_, o.data());
}

bool
BitVec::bit(unsigned i) const
{
    assert(i < width_);
    return (data()[i / 64] >> (i % 64)) & 1;
}

void
BitVec::setBit(unsigned i, bool v)
{
    assert(i < width_);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v)
        data()[i / 64] |= mask;
    else
        data()[i / 64] &= ~mask;
}

} // namespace orion::power
