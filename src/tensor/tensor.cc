#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/status.h"
#include "support/strings.h"
#include "tensor/buffer_pool.h"

namespace overlap {
namespace {

/** Advances a multi-dimensional index in row-major order. */
bool
NextIndex(std::vector<int64_t>& index, const std::vector<int64_t>& dims)
{
    for (int64_t d = static_cast<int64_t>(dims.size()) - 1; d >= 0; --d) {
        if (++index[d] < dims[d]) return true;
        index[d] = 0;
    }
    return false;
}

/** Row-major strides of `dims`. */
std::vector<int64_t>
Strides(const std::vector<int64_t>& dims)
{
    std::vector<int64_t> strides(dims.size(), 1);
    for (int64_t d = static_cast<int64_t>(dims.size()) - 2; d >= 0; --d) {
        strides[static_cast<size_t>(d)] =
            strides[static_cast<size_t>(d) + 1] * dims[static_cast<size_t>(d) + 1];
    }
    return strides;
}

}  // namespace

Tensor::Tensor(Shape shape) : shape_(std::move(shape))
{
    values_ = ThreadLocalBufferPool().Acquire(
        static_cast<size_t>(shape_.num_elements()));
    std::fill(values_.begin(), values_.end(), 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), values_(std::move(values))
{
    OVERLAP_CHECK(static_cast<int64_t>(values_.size()) ==
                  shape_.num_elements());
}

Tensor
Tensor::Uninitialized(Shape shape)
{
    Tensor t;
    t.shape_ = std::move(shape);
    t.values_ = ThreadLocalBufferPool().Acquire(
        static_cast<size_t>(t.shape_.num_elements()));
    return t;
}

void
Tensor::Recycle(Tensor&& t)
{
    ThreadLocalBufferPool().Release(std::move(t.values_));
    t.values_.clear();
    t.shape_ = Shape();
}

Tensor
Tensor::Scalar(float value)
{
    return Tensor(Shape(DType::kF32, {}), {value});
}

Tensor
Tensor::Full(const Shape& shape, float value)
{
    Tensor t = Uninitialized(shape);
    std::fill(t.values_.begin(), t.values_.end(), value);
    return t;
}

Tensor
Tensor::Iota(const Shape& shape, float start, float step)
{
    Tensor t = Uninitialized(shape);
    float v = start;
    for (float& e : t.values_) {
        e = v;
        v += step;
    }
    return t;
}

Tensor
Tensor::Random(const Shape& shape, uint64_t seed)
{
    Tensor t = Uninitialized(shape);
    // SplitMix64: small, deterministic, good enough for test data.
    uint64_t state = seed + 0x9E3779B97f4A7C15ull;
    for (float& e : t.values_) {
        uint64_t z = (state += 0x9E3779B97f4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z = z ^ (z >> 31);
        e = static_cast<float>(static_cast<double>(z) /
                               static_cast<double>(UINT64_MAX)) *
                2.0f -
            1.0f;
    }
    return t;
}

int64_t
Tensor::FlatIndex(const std::vector<int64_t>& index) const
{
    OVERLAP_CHECK(static_cast<int64_t>(index.size()) == shape_.rank());
    int64_t flat = 0;
    for (int64_t d = 0; d < shape_.rank(); ++d) {
        OVERLAP_CHECK(index[d] >= 0 && index[d] < shape_.dim(d));
        flat = flat * shape_.dim(d) + index[d];
    }
    return flat;
}

float
Tensor::at(const std::vector<int64_t>& index) const
{
    return values_[static_cast<size_t>(FlatIndex(index))];
}

void
Tensor::set(const std::vector<int64_t>& index, float value)
{
    values_[static_cast<size_t>(FlatIndex(index))] = value;
}

float
Tensor::ScalarValue() const
{
    OVERLAP_CHECK(num_elements() == 1);
    return values_[0];
}

Tensor
Tensor::Slice(const std::vector<int64_t>& starts,
              const std::vector<int64_t>& sizes) const
{
    OVERLAP_CHECK(static_cast<int64_t>(starts.size()) == shape_.rank());
    OVERLAP_CHECK(static_cast<int64_t>(sizes.size()) == shape_.rank());
    std::vector<int64_t> clamped(starts.size());
    for (int64_t d = 0; d < shape_.rank(); ++d) {
        OVERLAP_CHECK(sizes[d] >= 0 && sizes[d] <= shape_.dim(d));
        clamped[d] = std::clamp<int64_t>(starts[d], 0,
                                         shape_.dim(d) - sizes[d]);
    }
    Tensor out = Uninitialized(Shape(shape_.dtype(), sizes));
    if (out.num_elements() == 0) return out;
    const size_t rank = sizes.size();
    if (rank == 0) {
        out.values_[0] = values_[0];
        return out;
    }
    // Copy whole contiguous innermost runs instead of walking elements.
    std::vector<int64_t> strides = Strides(shape_.dims());
    const size_t run = static_cast<size_t>(sizes[rank - 1]);
    std::vector<int64_t> idx(rank - 1, 0);
    std::vector<int64_t> outer(sizes.begin(), sizes.end() - 1);
    float* dst = out.values_.data();
    do {
        int64_t src = clamped[rank - 1];
        for (size_t d = 0; d + 1 < rank; ++d) {
            src += (idx[d] + clamped[d]) * strides[d];
        }
        std::memcpy(dst, values_.data() + src, run * sizeof(float));
        dst += run;
    } while (NextIndex(idx, outer));
    return out;
}

void
Tensor::UpdateSliceInPlace(const Tensor& update,
                           const std::vector<int64_t>& starts)
{
    OVERLAP_CHECK(update.shape().rank() == shape_.rank());
    std::vector<int64_t> clamped(starts.size());
    for (int64_t d = 0; d < shape_.rank(); ++d) {
        OVERLAP_CHECK(update.shape().dim(d) <= shape_.dim(d));
        clamped[d] = std::clamp<int64_t>(
            starts[d], 0, shape_.dim(d) - update.shape().dim(d));
    }
    if (update.num_elements() == 0) return;
    const size_t rank = static_cast<size_t>(shape_.rank());
    if (rank == 0) {
        values_[0] = update.values_[0];
        return;
    }
    std::vector<int64_t> strides = Strides(shape_.dims());
    const std::vector<int64_t>& up_dims = update.shape().dims();
    const size_t run = static_cast<size_t>(up_dims[rank - 1]);
    std::vector<int64_t> idx(rank - 1, 0);
    std::vector<int64_t> outer(up_dims.begin(), up_dims.end() - 1);
    const float* src = update.values_.data();
    do {
        int64_t dst = clamped[rank - 1];
        for (size_t d = 0; d + 1 < rank; ++d) {
            dst += (idx[d] + clamped[d]) * strides[d];
        }
        std::memcpy(values_.data() + dst, src, run * sizeof(float));
        src += run;
    } while (NextIndex(idx, outer));
}

Tensor
Tensor::UpdateSlice(const Tensor& update,
                    const std::vector<int64_t>& starts) const
{
    Tensor out = Uninitialized(shape_);
    std::memcpy(out.values_.data(), values_.data(),
                values_.size() * sizeof(float));
    out.UpdateSliceInPlace(update, starts);
    return out;
}

Tensor
Tensor::Concatenate(const std::vector<Tensor>& parts, int64_t dim)
{
    OVERLAP_CHECK(!parts.empty());
    const Shape& first = parts[0].shape();
    int64_t total = 0;
    for (const Tensor& p : parts) {
        OVERLAP_CHECK(p.shape().rank() == first.rank());
        for (int64_t d = 0; d < first.rank(); ++d) {
            if (d != dim) OVERLAP_CHECK(p.shape().dim(d) == first.dim(d));
        }
        total += p.shape().dim(dim);
    }
    std::vector<int64_t> out_dims = first.dims();
    out_dims[dim] = total;
    // Every element of the output is covered by exactly one part, so a
    // single uninitialized buffer plus in-place writes suffices (the old
    // copy-per-part chain was quadratic in the part count).
    Tensor out = Uninitialized(Shape(first.dtype(), out_dims));
    int64_t offset = 0;
    for (const Tensor& p : parts) {
        std::vector<int64_t> starts(first.rank(), 0);
        starts[dim] = offset;
        out.UpdateSliceInPlace(p, starts);
        offset += p.shape().dim(dim);
    }
    return out;
}

Tensor
Tensor::Pad(const std::vector<int64_t>& low, const std::vector<int64_t>& high,
            float pad_value) const
{
    OVERLAP_CHECK(static_cast<int64_t>(low.size()) == shape_.rank());
    OVERLAP_CHECK(static_cast<int64_t>(high.size()) == shape_.rank());
    std::vector<int64_t> out_dims = shape_.dims();
    for (int64_t d = 0; d < shape_.rank(); ++d) {
        OVERLAP_CHECK(low[d] >= 0 && high[d] >= 0);
        out_dims[d] += low[d] + high[d];
    }
    Tensor out = Tensor::Full(Shape(shape_.dtype(), out_dims), pad_value);
    if (num_elements() == 0) return out;
    out.UpdateSliceInPlace(*this, low);
    return out;
}

Tensor
Tensor::Reshape(const Shape& shape) const
{
    OVERLAP_CHECK(shape.num_elements() == num_elements());
    Tensor out = Uninitialized(shape);
    std::memcpy(out.values_.data(), values_.data(),
                values_.size() * sizeof(float));
    return out;
}

Tensor
Tensor::Transpose(const std::vector<int64_t>& permutation) const
{
    OVERLAP_CHECK(static_cast<int64_t>(permutation.size()) == shape_.rank());
    std::vector<int64_t> out_dims(shape_.rank());
    for (int64_t d = 0; d < shape_.rank(); ++d) {
        out_dims[d] = shape_.dim(permutation[d]);
    }
    Tensor out = Uninitialized(Shape(shape_.dtype(), out_dims));
    if (out.num_elements() == 0) return out;
    // Walk the output row-major; the source offset advances by the
    // permuted stride on each axis, so no per-element index math.
    std::vector<int64_t> src_strides = Strides(shape_.dims());
    std::vector<int64_t> perm_strides(permutation.size());
    for (size_t d = 0; d < permutation.size(); ++d) {
        perm_strides[d] =
            src_strides[static_cast<size_t>(permutation[d])];
    }
    std::vector<int64_t> idx(out_dims.size(), 0);
    int64_t src = 0;
    for (float& v : out.values_) {
        v = values_[static_cast<size_t>(src)];
        for (int64_t d = static_cast<int64_t>(out_dims.size()) - 1; d >= 0;
             --d) {
            src += perm_strides[static_cast<size_t>(d)];
            if (++idx[static_cast<size_t>(d)] <
                out_dims[static_cast<size_t>(d)]) {
                break;
            }
            idx[static_cast<size_t>(d)] = 0;
            src -= perm_strides[static_cast<size_t>(d)] *
                   out_dims[static_cast<size_t>(d)];
        }
    }
    return out;
}

Tensor
Tensor::Map(const std::function<float(float)>& fn) const
{
    Tensor out = Uninitialized(shape_);
    for (size_t i = 0; i < values_.size(); ++i) {
        out.values_[i] = fn(values_[i]);
    }
    return out;
}

Tensor
Tensor::BinaryOp(const Tensor& lhs, const Tensor& rhs,
                 const std::function<float(float, float)>& fn)
{
    OVERLAP_CHECK(lhs.shape().SameDims(rhs.shape()));
    Tensor out = Uninitialized(lhs.shape());
    for (size_t i = 0; i < out.values_.size(); ++i) {
        out.values_[i] = fn(lhs.values_[i], rhs.values_[i]);
    }
    return out;
}

float
Tensor::MaxAbsDiff(const Tensor& lhs, const Tensor& rhs)
{
    OVERLAP_CHECK(lhs.shape().SameDims(rhs.shape()));
    // A NaN on either side (or inf - inf) makes the difference
    // unordered; std::max would silently skip it and pass the pair as
    // equal. Track it with a flag so the loop stays vectorizable.
    float max_diff = 0.0f;
    bool unordered = false;
    for (size_t i = 0; i < lhs.values_.size(); ++i) {
        float d = std::fabs(lhs.values_[i] - rhs.values_[i]);
        max_diff = d > max_diff ? d : max_diff;
        unordered |= d != d;
    }
    return unordered ? std::numeric_limits<float>::infinity() : max_diff;
}

bool
Tensor::AllClose(const Tensor& other, float tolerance) const
{
    if (!shape_.SameDims(other.shape())) return false;
    return MaxAbsDiff(*this, other) <= tolerance;
}

std::string
Tensor::ToString(int64_t max_elements) const
{
    std::string out = shape_.ToString() + " {";
    int64_t n = std::min<int64_t>(num_elements(), max_elements);
    for (int64_t i = 0; i < n; ++i) {
        if (i > 0) out += ", ";
        out += StrCat(values_[static_cast<size_t>(i)]);
    }
    if (n < num_elements()) out += ", ...";
    out += "}";
    return out;
}

}  // namespace overlap
