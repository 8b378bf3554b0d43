/**
 * @file
 * Recycling object pool for shared_ptr-managed hot-path objects.
 *
 * Packet metadata (router::PacketInfo) is allocated once per packet
 * and freed when the last flit referencing it dies — at steady state
 * that is one heap allocation and one deallocation per packet, plus
 * the route vector each carries and the shared_ptr control block. The
 * pool replaces that churn with two free lists: a released object
 * (route capacity and all) is parked and handed back out by the next
 * acquire(), and so is the storage of its control block, so a
 * warmed-up pool makes no heap allocation at all.
 *
 * Lifetime: handed-out pointers carry a deleter that owns a
 * shared_ptr to the pool's internal state, so objects released after
 * the RecyclingPool itself is gone still land in a live free list
 * (which is then dropped with the last of them). A recycled object is
 * NOT reset — the caller must reassign every field, which
 * Node::generateStage does anyway; the payoff is that its route
 * vector keeps its capacity.
 *
 * Events need no such treatment: sim::Event is a trivially copyable
 * value passed by reference through EventBus::emit and never heap
 * allocated.
 */

#ifndef ORION_SIM_POOL_HH
#define ORION_SIM_POOL_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/sync.hh"

namespace orion::sim {

/** Free-list recycler for shared_ptr-managed T objects. */
template <typename T>
class RecyclingPool
{
  public:
    RecyclingPool() : state_(std::make_shared<State>()) {}

    /**
     * Hand out an object: the most recently released one if any is
     * parked, otherwise a freshly constructed one. Recycled objects
     * keep their previous field values — assign every field before
     * use.
     */
    std::shared_ptr<T> acquire()
    {
        std::unique_ptr<T> owner;
        {
            State& st = *state_;
            const core::RoleGuard guard(st.serial);
            if (!st.free.empty()) {
                owner = std::move(st.free.back());
                st.free.pop_back();
                ++st.recycled;
            } else {
                owner = std::make_unique<T>();
                ++st.allocated;
            }
        }
        // If the shared_ptr constructor itself fails to allocate its
        // control block it invokes the deleter, which parks the object
        // back on the free list — nothing leaks, nothing double-frees.
        return std::shared_ptr<T>(owner.release(), Recycler{state_},
                                  BlockAllocator<T>{state_});
    }

    /// @name Introspection (tests)
    /// @{
    /** Objects constructed over the pool's lifetime. */
    std::uint64_t
    allocatedCount() const
    {
        const core::RoleGuard guard(state_->serial);
        return state_->allocated;
    }
    /** acquire() calls served from the free list. */
    std::uint64_t
    recycledCount() const
    {
        const core::RoleGuard guard(state_->serial);
        return state_->recycled;
    }
    /** Objects currently parked and available for reuse. */
    std::size_t
    freeCount() const
    {
        const core::RoleGuard guard(state_->serial);
        return state_->free.size();
    }
    /** shared_ptr control blocks allocated over the pool's lifetime. */
    std::uint64_t
    blockCount() const
    {
        const core::RoleGuard guard(state_->serial);
        return state_->blocksMade;
    }
    /** Objects currently handed out (alive shared_ptrs). */
    std::uint64_t
    liveCount() const
    {
        const core::RoleGuard guard(state_->serial);
        return state_->allocated + state_->recycled -
               state_->returned;
    }
    /// @}

  private:
    /**
     * The shared free list. One pool serves one Simulation today;
     * under intra-sim parallelism (ROADMAP 1b) partitions will either
     * get per-thread pools or this Role becomes a Mutex — either way
     * every touch point below is already capability-checked.
     */
    struct State
    {
        core::Role serial;
        std::vector<std::unique_ptr<T>> free ORION_GUARDED_BY(serial);
        std::uint64_t allocated ORION_GUARDED_BY(serial) = 0;
        std::uint64_t recycled ORION_GUARDED_BY(serial) = 0;
        std::uint64_t returned ORION_GUARDED_BY(serial) = 0;
        /** Parked control-block storage, all of one size: the control
         * block of a pooled shared_ptr. Its capacity always covers
         * every block made, so parking one never allocates. */
        std::vector<void*> blocks ORION_GUARDED_BY(serial);
        std::size_t blockSize ORION_GUARDED_BY(serial) = 0;
        std::uint64_t blocksMade ORION_GUARDED_BY(serial) = 0;

        State() = default;
        State(const State&) = delete;
        State& operator=(const State&) = delete;
        ~State()
        {
            for (void* block : blocks)
                ::operator delete(block);
        }
    };

    /**
     * Allocator of the handed-out shared_ptrs' control blocks: takes
     * storage from State::blocks and parks it there again. Each
     * control block holds a copy, so the State outlives the last
     * block returned to it.
     */
    template <typename U>
    struct BlockAllocator
    {
        using value_type = U;

        std::shared_ptr<State> state;

        explicit BlockAllocator(std::shared_ptr<State> s)
            : state(std::move(s))
        {
        }

        template <typename V>
        BlockAllocator(const BlockAllocator<V>& o) : state(o.state)
        {
        }

        U*
        allocate(std::size_t n)
        {
            static_assert(alignof(U) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
            assert(n == 1);
            (void)n;
            State& st = *state;
            const core::RoleGuard guard(st.serial);
            assert(st.blockSize == 0 || st.blockSize == sizeof(U));
            st.blockSize = sizeof(U);
            if (!st.blocks.empty()) {
                void* block = st.blocks.back();
                st.blocks.pop_back();
                return static_cast<U*>(block);
            }
            if (st.blocks.capacity() <= st.blocksMade)
                st.blocks.reserve(2 * st.blocksMade + 16);
            void* block = ::operator new(sizeof(U));
            ++st.blocksMade;
            return static_cast<U*>(block);
        }

        void
        deallocate(U* block, std::size_t) noexcept
        {
            const core::RoleGuard guard(state->serial);
            state->blocks.push_back(block);
        }

        friend bool
        operator==(const BlockAllocator& a, const BlockAllocator& b)
        {
            return a.state == b.state;
        }
    };

    struct Recycler
    {
        std::shared_ptr<State> state;

        void operator()(T* object) const
        {
            std::unique_ptr<T> owner(object);
            const core::RoleGuard guard(state->serial);
            ++state->returned;
            // push_back can only fail by throwing bad_alloc, in which
            // case `owner` frees the object instead of parking it.
            state->free.push_back(std::move(owner));
        }
    };

    std::shared_ptr<State> state_;
};

} // namespace orion::sim

#endif // ORION_SIM_POOL_HH
