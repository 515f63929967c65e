// Measurement collection and table rendering for the bench harness.
//
// RequestRecord mirrors what the paper's timecurl.sh script captures per
// request (curl's time_total: from starting the TCP connection until the
// full HTTP response); MetricsCollector aggregates per-tag SampleSets; and
// TextTable renders the paper-vs-measured comparison tables the benches
// print.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/tcp.hpp"
#include "simcore/stats.hpp"
#include "simcore/symbol_table.hpp"

namespace tedge::workload {

struct RequestRecord {
    sim::SymbolId service = sim::kInvalidSymbol; ///< interned tag, see tag_name()
    std::uint32_t client = 0;
    sim::SimTime sent;
    bool ok = false;
    sim::SimTime time_total; ///< curl time_total equivalent
    net::NodeId served_by;   ///< node that answered
};

class MetricsCollector {
public:
    void add(RequestRecord record);

    [[nodiscard]] const std::vector<RequestRecord>& records() const { return records_; }
    [[nodiscard]] std::size_t count() const { return records_.size(); }
    [[nodiscard]] std::size_t failures() const { return failures_; }

    /// The id of caller-defined `tag`, interning it on first sight. Ids stay
    /// valid for the collector's lifetime, across clear(). Interning alone
    /// creates no series.
    sim::SymbolId intern(std::string_view tag) { return symbols_.intern(tag); }
    /// The spelling of an interned tag (e.g. a RequestRecord::service).
    [[nodiscard]] const std::string& tag_name(sim::SymbolId id) const {
        return symbols_.name(id);
    }

    /// Per-tag sample series (milliseconds), created on first use.
    sim::SampleSet& series(std::string_view tag) { return series(intern(tag)); }
    sim::SampleSet& series(sim::SymbolId tag);
    /// The series of `tag`, or nullptr if none was ever created.
    [[nodiscard]] const sim::SampleSet* find_series(std::string_view tag) const;
    /// Tags that have a series, in sorted order (callers render tables from
    /// this, which must stay deterministic).
    [[nodiscard]] std::vector<std::string> tags() const;

    /// Drop records and series; interned ids stay valid.
    void clear();

private:
    std::vector<RequestRecord> records_;
    sim::SymbolTable symbols_;
    /// Indexed by tag id; null until the tag's series is first used.
    std::vector<std::unique_ptr<sim::SampleSet>> series_;
    std::size_t failures_ = 0;
};

/// Fixed-width ASCII table (first column left-aligned, rest right-aligned).
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void add_row(std::vector<std::string> cells);

    /// Convenience: format a double with the given precision.
    [[nodiscard]] static std::string num(double value, int precision = 1);

    [[nodiscard]] std::string str() const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace tedge::workload
