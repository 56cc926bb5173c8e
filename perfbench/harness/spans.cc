#include "harness/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

double
Now()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::vector<double>
SelfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent < 0) continue;
        const Span& p = spans[static_cast<size_t>(s.parent)];
        double lo = std::max(s.start, p.start);
        double hi = std::min(s.end, p.end);
        if (hi > lo) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = spans[i].start;
        for (const auto& [lo, hi] : kids) {
            double from = std::max(lo, reach);
            if (hi > from) covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

int64_t
SpanLog::Open(const std::string& name)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.item = item_;
    span.start = Now();
    spans_.push_back(std::move(span));
    int64_t index = static_cast<int64_t>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanLog::Close(int64_t index)
{
    spans_[static_cast<size_t>(index)].end = Now();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void
SpanLog::AddClosed(const std::string& name, double start, double end)
{
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.parent = open_.empty() ? -1 : open_.back();
    span.item = item_;
    spans_.push_back(std::move(span));
}

bool
SpanLog::WriteJson(const std::string& path) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                     "\"end_s\":%.9f,\"parent\":%lld,\"item\":%lld}%s\n",
                     i, s.name.c_str(), s.start, s.end,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.item),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
}

}  // namespace perfbench
