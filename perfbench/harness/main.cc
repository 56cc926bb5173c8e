/**
 * @file
 * The repository benchmark's driver. Runs one named workload on the
 * calling thread and prints the shared run header, then (as the last
 * line) the result object with every end-to-end metric, or with
 * --trace 1 every per-layer metric. perfbench/README.md describes the
 * workloads and metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * setup_s is timed by starting this program again with --setup-only 1,
 * which sets the workload up and exits (0 when set-up succeeded).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/runner.h"
#include "harness/workloads.h"

namespace {

int
Usage(const char* message)
{
    std::string names;
    for (const std::string& name : perfbench::WorkloadNames()) {
        names += " " + name;
    }
    std::fprintf(stderr,
                 "%s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--setup-only 1]\n"
                 "workloads:%s\n",
                 message, names.c_str());
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::RunConfig config;
    bool setup_only = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char* flag = argv[i];
        const char* value = argv[i + 1];
        if (std::strcmp(flag, "--workload") == 0) {
            config.workload = value;
        } else if (std::strcmp(flag, "--seed") == 0) {
            config.seed = std::strtoull(value, nullptr, 10);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            config.seconds = std::strtod(value, nullptr);
        } else if (std::strcmp(flag, "--trace") == 0) {
            config.trace = std::strcmp(value, "0") != 0;
        } else if (std::strcmp(flag, "--trace-out") == 0) {
            config.trace_out = value;
        } else if (std::strcmp(flag, "--setup-only") == 0) {
            setup_only = std::strcmp(value, "0") != 0;
        } else {
            return Usage("unknown flag");
        }
    }
    if (argc % 2 != 1) return Usage("every flag takes a value");
    auto workload = perfbench::MakeWorkload(config.workload);
    if (workload == nullptr) return Usage("unknown --workload");
    if (setup_only) {
        overlap::Status status = workload->Setup(config.seed);
        if (!status.ok()) {
            std::fprintf(stderr, "set-up failed: %s\n",
                         status.ToString().c_str());
        }
        // Set-up ends here: skip tearing the workload down.
        std::fflush(stderr);
        std::_Exit(status.ok() ? 0 : 1);
    }
    config.setup_command = {"/proc/self/exe", "--workload", config.workload,
                            "--seed", std::to_string(config.seed),
                            "--setup-only", "1"};

    auto result = perfbench::RunBenchmark(*workload, config);
    if (!result.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
    }
    for (const std::string& error : result->errors) {
        std::fprintf(stderr, "FAILED item: %s\n", error.c_str());
    }
    std::printf("%s\n%s\n", result->header_json.c_str(),
                perfbench::ResultJson(*result).c_str());
    return 0;
}
