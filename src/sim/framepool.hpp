// Pooled storage for coroutine frames (sim::Task and sim::Co promises).
//
// Every simulated core lives in a coroutine frame, and every awaited
// synchronization primitive (sim::Co) allocates another one — on the
// default allocator that is one malloc/free per lock acquire per core,
// the dominant allocator traffic of a big run. FramePool is a size-class
// segregated-fit arena in the spirit of the calendar queue's node pool:
// blocks come from per-thread subpools (so concurrent SweepRunner workers
// never contend) refilled in chunks, and a freed block goes back onto the
// freeing thread's list, ready for the next frame of the same class.
//
// Blocks carry a 16-byte header recording their size class (or that they
// came from the system heap, for oversized frames), so release() needs no
// external lookup. Chunk memory is owned by the process-wide arena and
// recycled for the life of the process — a steady-state simulation
// allocates no frame memory from the heap, which the `heapFrameCount()`
// test hook asserts.
#pragma once

#include <cstddef>
#include <cstdint>

namespace colibri::sim {

namespace framepool {

/// Allocate `size` bytes of frame storage (never returns nullptr; throws
/// std::bad_alloc on exhaustion like operator new).
[[nodiscard]] void* allocate(std::size_t size);

/// Return a block obtained from allocate().
void release(void* p) noexcept;

/// Number of frame allocations served by the pool since process start.
[[nodiscard]] std::uint64_t pooledFrameCount() noexcept;

/// Number of frame allocations that fell back to the system heap
/// (oversized frames only). Test hook: a steady-state simulation must not
/// move this counter.
[[nodiscard]] std::uint64_t heapFrameCount() noexcept;

/// Bytes of chunk memory currently owned by the arena (all threads).
[[nodiscard]] std::uint64_t arenaBytes() noexcept;

}  // namespace framepool

}  // namespace colibri::sim
