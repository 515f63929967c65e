#include "workload/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace tedge::workload {

void MetricsCollector::add(RequestRecord record) {
    if (!record.ok) ++failures_;
    records_.push_back(std::move(record));
}

sim::SampleSet& MetricsCollector::series(sim::SymbolId tag) {
    if (tag >= series_.size()) {
        if (tag >= symbols_.size()) throw std::out_of_range("series: unknown tag id");
        series_.resize(symbols_.size());
    }
    auto& slot = series_[tag];
    if (!slot) slot = std::make_unique<sim::SampleSet>();
    return *slot;
}

const sim::SampleSet* MetricsCollector::find_series(std::string_view tag) const {
    const auto id = symbols_.find(tag);
    if (!id || *id >= series_.size()) return nullptr;
    return series_[*id].get();
}

std::vector<std::string> MetricsCollector::tags() const {
    std::vector<std::string> out;
    for (sim::SymbolId id = 0; id < series_.size(); ++id) {
        if (series_[id]) out.push_back(symbols_.name(id));
    }
    std::sort(out.begin(), out.end());
    return out;
}

void MetricsCollector::clear() {
    records_.clear();
    series_.clear();
    failures_ = 0;
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
    cells.resize(header_.size());
    rows_.push_back(std::move(cells));
}

std::string TextTable::num(double value, int precision) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string TextTable::str() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c == 0) {
                os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
            } else {
                os << "  " << std::right << std::setw(static_cast<int>(widths[c]))
                   << row[c];
            }
        }
        os << "\n";
    };
    emit_row(header_);
    std::size_t total = 0;
    for (const auto w : widths) total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto& row : rows_) emit_row(row);
    return os.str();
}

} // namespace tedge::workload
