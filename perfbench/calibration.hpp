// Host speed probe. The host this benchmark was defined on shares its memory
// system with other tenants, and its speed drifts by tens of percent over
// minutes (README.md, "Steadiness"). Each repetition times this fixed loop
// next to the workload, and run.py scales host times by how slow the loop
// ran. The loop is built as its own library, apart from tedge, so changes
// to the simulator and its compile options cannot move it.
#pragma once

namespace tedge::perfbench {

/// Wall time of one pass of a fixed hash-map, string and std::function
/// churn loop (the allocation- and branch-heavy mix the simulator runs), in
/// milliseconds.
[[nodiscard]] double calibration_ms();

} // namespace tedge::perfbench
