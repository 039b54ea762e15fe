#include "catalog/catalog.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace raqo::catalog {

Result<TableId> Catalog::AddTable(TableDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  // NaN fails the comparison, and +inf would plan at an infinite cost.
  const auto positive_finite = [](double x) {
    return x > 0.0 && std::isfinite(x);
  };
  if (!positive_finite(def.row_count) || !positive_finite(def.row_bytes)) {
    return Status::InvalidArgument(
        "table statistics must be positive and finite: " + def.name);
  }
  for (const TableDef& t : tables_) {
    if (t.name == def.name) {
      return Status::InvalidArgument("duplicate table name: " + def.name);
    }
  }
  tables_.push_back(std::move(def));
  return static_cast<TableId>(tables_.size() - 1);
}

Status Catalog::AddJoin(TableId left, TableId right, double selectivity,
                        std::string predicate) {
  const auto n = static_cast<TableId>(tables_.size());
  if (left < 0 || left >= n || right < 0 || right >= n) {
    return Status::NotFound("AddJoin references unknown table id");
  }
  return join_graph_.AddEdge(left, right, selectivity, std::move(predicate));
}

Status Catalog::AddJoinOnColumns(TableId left,
                                 const std::string& left_column,
                                 TableId right,
                                 const std::string& right_column) {
  const auto n = static_cast<TableId>(tables_.size());
  if (left < 0 || left >= n || right < 0 || right >= n) {
    return Status::NotFound("AddJoinOnColumns references unknown table id");
  }
  const ColumnDef* lc =
      tables_[static_cast<size_t>(left)].FindColumn(left_column);
  const ColumnDef* rc =
      tables_[static_cast<size_t>(right)].FindColumn(right_column);
  if (lc == nullptr) {
    return Status::NotFound("no column '" + left_column + "' in table " +
                            tables_[static_cast<size_t>(left)].name);
  }
  if (rc == nullptr) {
    return Status::NotFound("no column '" + right_column + "' in table " +
                            tables_[static_cast<size_t>(right)].name);
  }
  if (lc->distinct_values <= 0.0 || rc->distinct_values <= 0.0) {
    return Status::InvalidArgument(
        "columns need positive distinct counts to derive a selectivity");
  }
  const double selectivity =
      1.0 / std::max(lc->distinct_values, rc->distinct_values);
  return join_graph_.AddEdge(
      left, right, selectivity,
      tables_[static_cast<size_t>(left)].name + "." + left_column + " = " +
          tables_[static_cast<size_t>(right)].name + "." + right_column);
}

const TableDef& Catalog::table(TableId id) const {
  RAQO_CHECK(id >= 0 && static_cast<size_t>(id) < tables_.size())
      << "invalid table id " << id;
  return tables_[static_cast<size_t>(id)];
}

Result<TableId> Catalog::FindTable(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name == name) return static_cast<TableId>(i);
  }
  return Status::NotFound("no such table: " + name);
}

std::vector<TableId> Catalog::AllTableIds() const {
  std::vector<TableId> out;
  out.reserve(tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    out.push_back(static_cast<TableId>(i));
  }
  return out;
}

}  // namespace raqo::catalog
