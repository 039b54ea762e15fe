#ifndef RAQO_CATALOG_CATALOG_H_
#define RAQO_CATALOG_CATALOG_H_

#include <string>
#include <vector>

#include "catalog/join_graph.h"
#include "catalog/table.h"
#include "common/result.h"
#include "common/status.h"

namespace raqo::catalog {

/// The schema the optimizer plans against: a set of tables with statistics
/// plus the join graph connecting them.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table; returns its dense id. Fails on duplicate names or
  /// statistics that are not positive and finite.
  Result<TableId> AddTable(TableDef def);

  /// Adds a join edge between two previously registered tables.
  Status AddJoin(TableId left, TableId right, double selectivity,
                 std::string predicate = "");

  /// Adds a join edge whose selectivity is *derived* from column
  /// statistics — the textbook equi-join estimate 1/max(ndv_left,
  /// ndv_right). Both columns must exist with positive distinct counts.
  Status AddJoinOnColumns(TableId left, const std::string& left_column,
                          TableId right, const std::string& right_column);

  size_t num_tables() const { return tables_.size(); }

  /// Table definition by id; id must be valid.
  const TableDef& table(TableId id) const;

  /// Looks a table up by name.
  Result<TableId> FindTable(const std::string& name) const;

  const JoinGraph& join_graph() const { return join_graph_; }

  /// All table ids, 0..n-1.
  std::vector<TableId> AllTableIds() const;

 private:
  std::vector<TableDef> tables_;
  JoinGraph join_graph_;
};

}  // namespace raqo::catalog

#endif  // RAQO_CATALOG_CATALOG_H_
