#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since an arbitrary process epoch. */
double Now();

/**
 * One traced interval around a call into a layer. `parent` indexes the
 * enclosing span in the same log (-1 for an item's root span); every
 * span of one item carries that item's id.
 */
struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    int64_t item = -1;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover (overlapping children are counted
 * once; a child sticking out of its parent is clipped). Same order as
 * `spans`.
 */
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/**
 * In-memory span log of a traced run, plus named per-layer counters
 * recorded at the same call boundaries. Spans are written out only
 * when the run ends (WriteJson), never while items are being timed.
 */
class SpanLog {
  public:
    /** Opens a span under the currently open one; returns its index. */
    int64_t Open(const std::string& name);
    /** Closes the innermost open span, which must be `index`. */
    void Close(int64_t index);
    /** Adds an already-measured span under the open one. */
    void AddClosed(const std::string& name, double start, double end);

    /** Sets the item id stamped onto the spans opened from now on. */
    void set_item(int64_t item) { item_ = item; }

    void Count(const std::string& name, double value)
    {
        counters_[name] += value;
    }
    const std::vector<Span>& spans() const { return spans_; }
    const std::map<std::string, double>& counters() const
    {
        return counters_;
    }

    /** Writes the spans as a JSON array of objects to `path`. */
    bool WriteJson(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
    std::map<std::string, double> counters_;
    int64_t item_ = -1;
};

/**
 * Records a span around a scope when a log is given; does nothing (and
 * reads no clock) when `log` is null, which is the untraced run.
 */
class ScopedSpan {
  public:
    ScopedSpan(SpanLog* log, const char* name)
        : log_(log), index_(log ? log->Open(name) : -1) {}
    ~ScopedSpan()
    {
        if (log_) log_->Close(index_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int64_t index() const { return index_; }

  private:
    SpanLog* log_;
    int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
