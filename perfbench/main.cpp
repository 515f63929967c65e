// perfbench_tedge: one repetition of one benchmark workload.
//
//   perfbench_tedge --workload <name> --seed <n> [--traced] [--lanes <k>]
//
// Prints one JSON line: the simulated-result digest, the metrics, request
// counts and the resolved kernel defaults. run.py repeats it, checks the
// digests and aggregates the medians; see README.md.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "calibration.hpp"
#include "harness.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/sharded_simulation.hpp"

extern char** environ;

namespace {

using namespace tedge;

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::string json_number(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

const char* sync_name(sim::SyncMode mode) {
    switch (mode) {
        case sim::SyncMode::kBarrier: return "barrier";
        case sim::SyncMode::kChannelLocked: return "channel-locked";
        case sim::SyncMode::kChannel: return "channel";
    }
    return "unknown";
}

std::string kernel_defaults_json() {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::ostringstream os;
    os << "{\"backend\":"
       << json_string(sim::EventQueue::default_backend() == sim::QueueBackend::kHeap
                          ? "heap"
                          : "wheel")
       << ",\"sync\":" << json_string(sync_name(sim::ShardedSimulation::default_sync()))
       << ",\"grain\":" << json_number(sim::ShardedSimulation::default_grain())
       << ",\"pin\":" << (sim::ShardedSimulation::default_pin() ? "true" : "false")
       << ",\"hardware_concurrency\":" << hw << ",\"compiler\":" << json_string(__VERSION__)
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << "}";
    return os.str();
}

int usage() {
    std::cerr << "usage: perfbench_tedge --workload c3-docker-steady|c3-k8s-churn|"
                 "cp-fill-sharded --seed <n> [--traced] [--lanes <k>]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    // The benchmark measures the defaults; a TEDGE_* override would silently
    // measure something else.
    for (char** env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "TEDGE_", 6) == 0) {
            std::cerr << "perfbench_tedge: refusing to run with " << *env
                      << " set; the benchmark measures the defaults\n";
            return 2;
        }
    }

    std::string workload;
    perfbench::RunOptions options;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--lanes" && has_value) {
            options.lanes = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--traced") {
            options.traced = true;
        } else {
            return usage();
        }
    }
    if (!have_seed) return usage();

    perfbench::Report report;
    // Host speed right before and right after the workload; the first pass
    // only warms the allocator.
    (void)perfbench::calibration_ms();
    const double calibration_before = perfbench::calibration_ms();
    try {
        if (workload == "c3-docker-steady") {
            report = perfbench::run_c3_docker_steady(options);
        } else if (workload == "c3-k8s-churn") {
            report = perfbench::run_c3_k8s_churn(options);
        } else if (workload == "cp-fill-sharded") {
            report = perfbench::run_cp_fill_sharded(options);
        } else {
            return usage();
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench_tedge: " << workload << " failed: " << e.what() << "\n";
        return 1;
    }
    report.metrics["host.calibration_ms"] =
        (calibration_before + perfbench::calibration_ms()) / 2;

    std::ostringstream os;
    os << "{\"workload\":" << json_string(workload) << ",\"seed\":" << options.seed
       << ",\"traced\":" << (options.traced ? "true" : "false")
       << ",\"attempted\":" << report.attempted << ",\"resolved\":" << report.resolved
       << ",\"failed\":" << report.failed << ",\"digest\":{";
    bool first = true;
    for (const auto& [field, value] : report.digest) {
        os << (first ? "" : ",") << json_string(field) << ":" << json_string(value);
        first = false;
    }
    os << "},\"metrics\":{";
    first = true;
    for (const auto& [name, value] : report.metrics) {
        os << (first ? "" : ",") << json_string(name) << ":" << json_number(value);
        first = false;
    }
    os << "},\"kernel\":" << kernel_defaults_json() << "}";
    std::cout << os.str() << std::endl;
    return 0;
}
