#include "harness/calibrate.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <unordered_map>

#include "harness/spans.h"

namespace perfbench {

namespace {

volatile uint64_t sink = 0;

}  // namespace

double
CalibrationSeconds()
{
    const double start = Now();
    std::mt19937_64 rng(12345);
    std::vector<uint64_t> keys(1 << 14);
    for (uint64_t& k : keys) k = rng();
    std::vector<uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<uint64_t, uint64_t> table;
    for (size_t i = 0; i < keys.size(); ++i) table[keys[i]] = i;
    uint64_t acc = 0;
    for (uint64_t k : sorted) acc += table.at(k);
    std::vector<double> x(1 << 12);
    for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 97);
    for (int pass = 0; pass < 8; ++pass) {
        for (size_t i = 1; i < x.size(); ++i) x[i] = 0.5 * x[i] + 0.25 * x[i - 1];
    }
    // Node-based ordered containers and short strings, the staple of
    // the compiler's IR code: of the kernels tried, this part tracked
    // the workloads' own slowdowns best.
    std::set<uint64_t> ordered;
    for (int i = 0; i < 8192; ++i) ordered.insert(rng());
    for (uint64_t v : ordered) acc += v;
    std::vector<std::string> names;
    for (int i = 0; i < 4096; ++i) {
        names.push_back("instr." + std::to_string(i) + ".operand");
    }
    std::sort(names.begin(), names.end());
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < names.size(); ++i) index[names[i]] = i;
    for (const std::string& name : names) acc += index[name];
    // A hash table and a tree larger than a core's L2 cache, probed in
    // random order: the simulator and the compiler at paper scale work
    // out of such tables, and slow down with the shared cache more
    // than the small tables above do.
    std::vector<uint64_t> big(1 << 16);
    for (uint64_t& k : big) k = rng();
    std::unordered_map<uint64_t, uint64_t> big_table;
    for (size_t i = 0; i < big.size(); ++i) big_table[big[i]] = i;
    std::shuffle(big.begin(), big.end(), rng);
    for (uint64_t k : big) acc += big_table.at(k);
    std::set<uint64_t> big_tree;
    for (int i = 0; i < (1 << 15); ++i) big_tree.insert(rng());
    for (uint64_t v : big_tree) acc += v;
    sink = acc + static_cast<uint64_t>(x.back());
    return Now() - start;
}

SpeedNormalizer::SpeedNormalizer() : last_probe_(Probe()), last_time_(Now()) {}

double
SpeedNormalizer::Probe()
{
    return CalibrationSeconds();
}

void
SpeedNormalizer::Add(double raw, std::vector<double>* out)
{
    pending_.push_back({raw, out});
    if (Now() - last_time_ >= kIntervalSeconds) Flush();
}

void
SpeedNormalizer::Flush()
{
    const double probe = Probe();
    const double factor = kReferenceSeconds / (0.5 * (last_probe_ + probe));
    for (auto& [raw, out] : pending_) out->push_back(raw * factor);
    if (!pending_.empty()) {
        factor_sum_ += factor;
        ++factors_;
    }
    pending_.clear();
    last_probe_ = probe;
    last_time_ = Now();
}

double
SpeedNormalizer::mean_factor() const
{
    return factors_ > 0 ? factor_sum_ / static_cast<double>(factors_) : 1.0;
}

}  // namespace perfbench
