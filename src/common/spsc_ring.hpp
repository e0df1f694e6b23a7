// Bounded lock-free single-producer/single-consumer ring.
//
// The serving layer hands classification requests from ingestion threads to
// the coalescer through one of these per shard: the producer side is
// serialised by the shard (whichever ingestion thread holds the shard owns
// the push), the consumer is always the single coalescer thread, so the
// classic two-index Lamport queue applies — a push and a pop never touch
// the same index, and a full ring is a clean, observable rejection
// (backpressure) instead of an unbounded queue hiding overload.
//
// Slots are raw storage: an item is constructed in its slot on push and
// destroyed on pop (or when the ring is destroyed), so building a ring
// constructs no T.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/error.hpp"

namespace csdml {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two so index wrapping is
  /// a mask, never a modulo.
  explicit SpscRing(std::size_t min_capacity) {
    CSDML_REQUIRE(min_capacity > 0, "ring capacity must be positive");
    std::size_t capacity = 1;
    while (capacity < min_capacity) capacity <<= 1;
    slots_.reset(new Slot[capacity]);
    mask_ = capacity - 1;
  }

  ~SpscRing() {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    for (std::size_t head = head_.load(std::memory_order_relaxed); head != tail; ++head) {
      std::destroy_at(item(head));
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false (item untouched beyond the move attempt
  /// never happening) when the ring is full — the caller sheds.
  bool try_push(T&& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail - head == capacity()) return false;
    ::new (static_cast<void*>(slots_[tail & mask_].bytes)) T(std::move(item));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    T* slot = item(head);
    out = std::move(*slot);
    std::destroy_at(slot);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (exact when read from producer or consumer).
  std::size_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    alignas(T) std::byte bytes[sizeof(T)];
  };

  T* item(std::size_t index) {
    return std::launder(reinterpret_cast<T*>(slots_[index & mask_].bytes));
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_{0};
  /// Producer and consumer indices live on their own cache lines so a
  /// pushing ingestion thread never invalidates the coalescer's line.
  alignas(64) std::atomic<std::size_t> head_{0};  ///< next pop (consumer)
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< next push (producer)
};

}  // namespace csdml
