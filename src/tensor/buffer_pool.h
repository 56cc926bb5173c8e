#ifndef OVERLAP_TENSOR_BUFFER_POOL_H_
#define OVERLAP_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace overlap {

/**
 * A size-bucketed free list of float buffers: the allocator behind
 * Tensor storage (DESIGN.md §12, §17).
 *
 * The decomposed CollectiveEinsum loop allocates the same handful of
 * shapes over and over (N partial einsum results, the
 * DynamicUpdateSlice accumulator chain, per-step permute temporaries).
 * Routing those allocations through a pool turns the steady state of a
 * loop evaluation into pure buffer reuse.
 *
 * Buffers are plain `std::vector<float>` so `Tensor` can adopt them by
 * move with no custom allocator. Bucket b holds vectors whose capacity
 * is in [2^b, 2^(b+1)); Acquire(n) takes from bucket ceil(log2(n)), so
 * a pooled hit is guaranteed to have capacity >= n. Retained bytes are
 * capped; a Release that would exceed the cap frees the buffer.
 *
 * Thread model: every thread gets its own pool via
 * ThreadLocalBufferPool(), so the fast path needs no locking and a
 * buffer never moves between threads while pooled. A pool frees its
 * buffers when it is destroyed (for the thread-local pools, when their
 * thread exits).
 *
 * Sanitizer builds (OVERLAP_SANITIZE) also keep a process-wide set of
 * pooled base pointers, which turns a double Release of one buffer —
 * the same heap block handed to two live tensors — into an immediate
 * check failure.
 */
class BufferPool {
  public:
    struct Stats {
        /// Acquire() calls served from the local free list.
        int64_t hits = 0;
        /// Acquire() calls that fell through to the heap.
        int64_t misses = 0;
        /// Release() calls that pooled the buffer locally.
        int64_t pooled = 0;
        /// Release() calls dropped (empty or over the cap).
        int64_t dropped = 0;

        std::string ToString() const;
    };

    explicit BufferPool(int64_t max_retained_bytes = 64ll << 20)
        : max_retained_bytes_(max_retained_bytes) {}

    /** Clear() rather than the default: sanitizer builds must also
     * unregister every pooled buffer before it is freed. */
    ~BufferPool() { Clear(); }

    /**
     * Returns a vector of exactly `n` elements with unspecified
     * contents (pooled buffers are *not* cleared — callers that need
     * zeros fill explicitly).
     */
    std::vector<float> Acquire(size_t n);

    /** Hands a dead buffer back for reuse. */
    void Release(std::vector<float>&& buffer);

    const Stats& stats() const { return stats_; }
    void ResetStats() { stats_ = Stats(); }

    /** Frees every pooled buffer (stats are kept). */
    void Clear();

    int64_t retained_bytes() const { return retained_bytes_; }

  private:
    static constexpr int kNumBuckets = 40;

    static int BucketFor(size_t n);

    int64_t max_retained_bytes_;
    int64_t retained_bytes_ = 0;
    Stats stats_;
    std::vector<std::vector<float>> buckets_[kNumBuckets];
};

/** The calling thread's pool (created on first use, freed when the
 * thread exits). */
BufferPool& ThreadLocalBufferPool();

/**
 * Process-wide count of float-buffer heap allocations made on behalf of
 * Tensors (fresh allocations only; pooled hits don't count).
 * alloc_regression_test asserts a warm decomposed-loop evaluation
 * leaves it unchanged.
 */
int64_t TensorHeapAllocCount();

/**
 * Turns on wall-clock accounting of BufferPool::Acquire (covers pooled
 * hits and heap misses). Off by default — perfbench enables it in
 * traced runs to report the allocation phase's share of an evaluation.
 */
void SetAllocTimingEnabled(bool enabled);

/** Returns the seconds accumulated since the last call, and resets. */
double ConsumeAllocSeconds();

namespace internal {
/** Records `count` fresh heap allocations (relaxed atomic). */
void CountTensorHeapAlloc(int64_t count = 1);
}  // namespace internal

}  // namespace overlap

#endif  // OVERLAP_TENSOR_BUFFER_POOL_H_
