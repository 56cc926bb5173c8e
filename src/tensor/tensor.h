#ifndef OVERLAP_TENSOR_TENSOR_H_
#define OVERLAP_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "tensor/shape.h"

namespace overlap {

/**
 * A dense, row-major tensor of f32 values used by the functional
 * interpreter. Regardless of the Shape's declared dtype, values are stored
 * as f32 — the interpreter exists to check *semantic equivalence* of graph
 * transformations, for which f32 arithmetic is sufficient.
 */
class Tensor {
  public:
    Tensor() = default;

    /** Creates a zero-initialized tensor of `shape`. */
    explicit Tensor(Shape shape);

    /** Creates a tensor with explicit row-major `values`. */
    Tensor(Shape shape, std::vector<float> values);

    /**
     * Creates a tensor of `shape` with *unspecified* contents, drawing
     * its buffer from the calling thread's BufferPool. Every element
     * must be written before it is read; internal ops that fully
     * overwrite their output (Slice, Transpose, BinaryOp, einsum) use
     * this to reuse recycled buffers instead of heap-allocating.
     */
    static Tensor Uninitialized(Shape shape);

    /**
     * Returns a dead tensor's buffer to the calling thread's
     * BufferPool. The evaluator calls this when a value's last use has
     * executed; the next Uninitialized/zero-init of a similar size
     * reuses the buffer. Recycling a tensor that is still referenced
     * elsewhere is safe (buffers are never shared between tensors) but
     * leaves `t` empty.
     */
    static void Recycle(Tensor&& t);

    /** Returns a scalar tensor. */
    static Tensor Scalar(float value);

    /** Returns a tensor filled with `value`. */
    static Tensor Full(const Shape& shape, float value);

    /**
     * Returns a tensor whose element at flat index i equals
     * start + i * step; handy for making distinguishable test data.
     */
    static Tensor Iota(const Shape& shape, float start = 0.0f,
                       float step = 1.0f);

    /** Deterministic pseudo-random values in [-1, 1] from `seed`. */
    static Tensor Random(const Shape& shape, uint64_t seed);

    const Shape& shape() const { return shape_; }
    int64_t num_elements() const { return shape_.num_elements(); }

    float* data() { return values_.data(); }
    const float* data() const { return values_.data(); }
    std::vector<float>& values() { return values_; }
    const std::vector<float>& values() const { return values_; }

    /** Element access by multi-dimensional index. */
    float at(const std::vector<int64_t>& index) const;
    void set(const std::vector<int64_t>& index, float value);

    /** Converts a multi-dim index to the flat row-major offset. */
    int64_t FlatIndex(const std::vector<int64_t>& index) const;

    /** Scalar value of a rank-0 (or single-element) tensor. */
    float ScalarValue() const;

    /**
     * Extracts the static slice [starts, starts+sizes) along each dim.
     * Starts are clamped to keep the slice in bounds (XLA DynamicSlice
     * semantics).
     */
    Tensor Slice(const std::vector<int64_t>& starts,
                 const std::vector<int64_t>& sizes) const;

    /**
     * Returns a copy of this tensor with `update` written at `starts`
     * (clamped; XLA DynamicUpdateSlice semantics).
     */
    Tensor UpdateSlice(const Tensor& update,
                       const std::vector<int64_t>& starts) const;

    /** In-place variant of UpdateSlice (no copy of the base tensor). */
    void UpdateSliceInPlace(const Tensor& update,
                            const std::vector<int64_t>& starts);

    /** Concatenates `parts` along `dim`; all other dims must match. */
    static Tensor Concatenate(const std::vector<Tensor>& parts, int64_t dim);

    /**
     * Pads with `pad_value`: `low[d]` elements before and `high[d]` after
     * dimension d. Negative padding is not supported.
     */
    Tensor Pad(const std::vector<int64_t>& low,
               const std::vector<int64_t>& high, float pad_value) const;

    /** Reshapes to `shape` (element count must match). */
    Tensor Reshape(const Shape& shape) const;

    /** Permutes dimensions: out dim i = in dim permutation[i]. */
    Tensor Transpose(const std::vector<int64_t>& permutation) const;

    /** Elementwise map of this tensor. */
    Tensor Map(const std::function<float(float)>& fn) const;

    /** Elementwise combination; shapes must have identical dims. */
    static Tensor BinaryOp(const Tensor& lhs, const Tensor& rhs,
                           const std::function<float(float, float)>& fn);

    /**
     * Max |a - b| over all elements; shapes must match. +inf if the
     * difference is NaN anywhere (a NaN in either operand), so a NaN
     * output never compares as close.
     */
    static float MaxAbsDiff(const Tensor& lhs, const Tensor& rhs);

    /** True if all elements are within `tolerance` of `other`. */
    bool AllClose(const Tensor& other, float tolerance = 1e-4f) const;

    /** Compact textual form (full contents for small tensors). */
    std::string ToString(int64_t max_elements = 64) const;

  private:
    Shape shape_;
    std::vector<float> values_;
};

}  // namespace overlap

#endif  // OVERLAP_TENSOR_TENSOR_H_
