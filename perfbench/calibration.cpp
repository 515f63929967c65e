#include "calibration.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace tedge::perfbench {

double calibration_ms() {
    const auto start = std::chrono::steady_clock::now();
    std::unordered_map<std::uint64_t, std::string> table;
    std::vector<std::function<void()>> queue;
    std::mt19937_64 rng(5);
    std::uint64_t sum = 0;
    for (int i = 0; i < 150'000; ++i) {
        const std::uint64_t key = rng() % 20'000;
        auto [it, inserted] = table.try_emplace(key, "svc" + std::to_string(key));
        if (!inserted && (key & 3) == 0) table.erase(it);
        queue.emplace_back([&sum, key] { sum += key; });
        if (queue.size() > 4096) {
            for (auto& fn : queue) fn();
            queue.clear();
        }
    }
    volatile std::uint64_t sink = sum;
    (void)sink;
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace tedge::perfbench
