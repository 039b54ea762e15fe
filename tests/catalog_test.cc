#include <gtest/gtest.h>

#include <limits>

#include "catalog/catalog.h"
#include "catalog/random_schema.h"
#include "catalog/table.h"
#include "catalog/tpch.h"

namespace raqo::catalog {
namespace {

TEST(TableDefTest, SizeHelpers) {
  TableDef t{"t", 1000.0, 1024.0};
  EXPECT_DOUBLE_EQ(t.total_bytes(), 1024.0 * 1000.0);
  EXPECT_NEAR(t.total_gb(), 1000.0 / 1024.0 / 1024.0, 1e-12);
  EXPECT_DOUBLE_EQ(GbToBytes(1.0), 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(BytesToGb(GbToBytes(3.5)), 3.5);
  EXPECT_DOUBLE_EQ(MbToBytes(1.0), 1024.0 * 1024.0);
}

TEST(CatalogTest, AddAndFindTables) {
  Catalog cat;
  Result<TableId> a = cat.AddTable({"alpha", 100, 50});
  Result<TableId> b = cat.AddTable({"beta", 200, 60});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.table(*a).name, "alpha");
  EXPECT_EQ(*cat.FindTable("beta"), *b);
  EXPECT_FALSE(cat.FindTable("gamma").ok());
}

TEST(CatalogTest, RejectsBadTables) {
  Catalog cat;
  EXPECT_FALSE(cat.AddTable({"", 10, 10}).ok());
  EXPECT_FALSE(cat.AddTable({"x", 0, 10}).ok());
  EXPECT_FALSE(cat.AddTable({"x", 10, -1}).ok());
  ASSERT_TRUE(cat.AddTable({"x", 10, 10}).ok());
  EXPECT_FALSE(cat.AddTable({"x", 10, 10}).ok());  // duplicate name
}

TEST(CatalogTest, AddTableRejectsNonFiniteStatistics) {
  Catalog cat;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {inf, -inf, nan}) {
    EXPECT_TRUE(cat.AddTable({"x", bad, 10}).status().IsInvalidArgument())
        << "row_count " << bad;
    EXPECT_TRUE(cat.AddTable({"x", 10, bad}).status().IsInvalidArgument())
        << "row_bytes " << bad;
  }
  EXPECT_EQ(cat.num_tables(), 0u);
}

TEST(CatalogTest, AddJoinValidates) {
  Catalog cat;
  TableId a = *cat.AddTable({"a", 10, 10});
  TableId b = *cat.AddTable({"b", 10, 10});
  EXPECT_TRUE(cat.AddJoin(a, b, 0.1).ok());
  EXPECT_FALSE(cat.AddJoin(a, 99, 0.1).ok());
  EXPECT_FALSE(cat.AddJoin(a, a, 0.1).ok());
  EXPECT_FALSE(cat.AddJoin(a, b, 0.0).ok());
  EXPECT_FALSE(cat.AddJoin(a, b, 1.5).ok());
}

TEST(JoinGraphTest, EdgesAndNeighbors) {
  JoinGraph g;
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0.25).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));  // undirected
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_DOUBLE_EQ(g.EdgeSelectivity(1, 2), 0.25);
  EXPECT_DOUBLE_EQ(g.EdgeSelectivity(0, 2), 1.0);  // cross product
  EXPECT_EQ(g.Neighbors(1), (std::vector<TableId>{0, 2}));
}

TEST(JoinGraphTest, Connectivity) {
  JoinGraph g;
  ASSERT_TRUE(g.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  EXPECT_TRUE(g.IsConnected({0, 1}));
  EXPECT_TRUE(g.IsConnected({2, 3}));
  EXPECT_FALSE(g.IsConnected({0, 1, 2, 3}));
  EXPECT_TRUE(g.IsConnected({0}));
  EXPECT_TRUE(g.IsConnected({}));
}

TEST(TpchTest, SchemaShape) {
  Catalog cat = BuildTpchCatalog(100.0);
  EXPECT_EQ(cat.num_tables(), 8u);
  // lineitem at SF100 is roughly the 77 GB the paper reports.
  TableId lineitem = *cat.FindTable("lineitem");
  EXPECT_NEAR(cat.table(lineitem).total_gb(), 72.6, 5.0);
  // orders is ~15 GB at SF100.
  TableId orders = *cat.FindTable("orders");
  EXPECT_GT(cat.table(orders).total_gb(), 10.0);
  EXPECT_LT(cat.table(orders).total_gb(), 20.0);
  // nation/region do not scale.
  EXPECT_EQ(cat.table(*cat.FindTable("nation")).row_count, 25.0);
  EXPECT_EQ(cat.table(*cat.FindTable("region")).row_count, 5.0);
}

TEST(TpchTest, ForeignKeySelectivities) {
  Catalog cat = BuildTpchCatalog(1.0);
  TableId lineitem = *cat.FindTable("lineitem");
  TableId orders = *cat.FindTable("orders");
  // FK selectivity = 1/|orders| so |lineitem x orders| = |lineitem|.
  EXPECT_DOUBLE_EQ(cat.join_graph().EdgeSelectivity(lineitem, orders),
                   1.0 / 1'500'000.0);
}

TEST(TpchTest, QueriesAreConnected) {
  Catalog cat = BuildTpchCatalog(100.0);
  for (TpchQuery q : {TpchQuery::kQ12, TpchQuery::kQ3, TpchQuery::kQ2,
                      TpchQuery::kAll}) {
    Result<std::vector<TableId>> tables = TpchQueryTables(cat, q);
    ASSERT_TRUE(tables.ok()) << TpchQueryName(q);
    EXPECT_TRUE(cat.join_graph().IsConnected(*tables)) << TpchQueryName(q);
  }
}

TEST(TpchTest, QuerySizesMatchPaper) {
  Catalog cat = BuildTpchCatalog(100.0);
  EXPECT_EQ(TpchQueryTables(cat, TpchQuery::kQ12)->size(), 2u);  // 1 join
  EXPECT_EQ(TpchQueryTables(cat, TpchQuery::kQ3)->size(), 3u);   // 2 joins
  EXPECT_EQ(TpchQueryTables(cat, TpchQuery::kQ2)->size(), 4u);   // 3 joins
  EXPECT_EQ(TpchQueryTables(cat, TpchQuery::kAll)->size(), 8u);
}

TEST(RandomSchemaTest, GeneratesWithinBounds) {
  RandomSchemaOptions options;
  options.num_tables = 50;
  options.seed = 99;
  Result<Catalog> cat = BuildRandomCatalog(options);
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->num_tables(), 50u);
  for (TableId id : cat->AllTableIds()) {
    const TableDef& t = cat->table(id);
    EXPECT_GE(t.row_bytes, 100.0);
    EXPECT_LE(t.row_bytes, 200.0);
    EXPECT_GE(t.row_count, 100'000.0);
    EXPECT_LE(t.row_count, 2'000'000.0);
  }
}

TEST(RandomSchemaTest, WholeSchemaIsConnected) {
  RandomSchemaOptions options;
  options.num_tables = 100;
  Result<Catalog> cat = BuildRandomCatalog(options);
  ASSERT_TRUE(cat.ok());
  EXPECT_TRUE(cat->join_graph().IsConnected(cat->AllTableIds()));
}

TEST(RandomSchemaTest, Deterministic) {
  RandomSchemaOptions options;
  options.num_tables = 10;
  options.seed = 4;
  Catalog a = *BuildRandomCatalog(options);
  Catalog b = *BuildRandomCatalog(options);
  for (TableId id : a.AllTableIds()) {
    EXPECT_DOUBLE_EQ(a.table(id).row_count, b.table(id).row_count);
    EXPECT_DOUBLE_EQ(a.table(id).row_bytes, b.table(id).row_bytes);
  }
  EXPECT_EQ(a.join_graph().edges().size(), b.join_graph().edges().size());
}

TEST(RandomSchemaTest, RejectsBadOptions) {
  RandomSchemaOptions options;
  options.num_tables = 0;
  EXPECT_FALSE(BuildRandomCatalog(options).ok());
  options.num_tables = 5;
  options.min_rows = 10;
  options.max_rows = 5;
  EXPECT_FALSE(BuildRandomCatalog(options).ok());
}

TEST(RandomQueryTest, GrowsConnectedQueries) {
  RandomSchemaOptions options;
  options.num_tables = 100;
  Catalog cat = *BuildRandomCatalog(options);
  for (int n : {2, 8, 30, 100}) {
    Result<std::vector<TableId>> q = RandomQueryTables(cat, n, 11);
    ASSERT_TRUE(q.ok()) << n;
    EXPECT_EQ(q->size(), static_cast<size_t>(n));
    EXPECT_TRUE(cat.join_graph().IsConnected(*q)) << n;
  }
  EXPECT_FALSE(RandomQueryTables(cat, 0, 1).ok());
  EXPECT_FALSE(RandomQueryTables(cat, 101, 1).ok());
}

}  // namespace
}  // namespace raqo::catalog
