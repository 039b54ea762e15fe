#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "core/container_reuse.h"
#include "plan/plan_builder.h"
#include "sim/simulator.h"

namespace raqo {
namespace {

using catalog::TableId;
using catalog::TpchQuery;
using resource::ResourceConfig;

// ---------------------------------------------------------------------
// Column statistics / derived selectivities

TEST(ColumnStatsTest, FindColumn) {
  catalog::TableDef def;
  def.name = "t";
  def.row_count = 10;
  def.row_bytes = 10;
  def.columns = {{"a", 100.0}, {"b", 5.0}};
  ASSERT_NE(def.FindColumn("a"), nullptr);
  EXPECT_DOUBLE_EQ(def.FindColumn("b")->distinct_values, 5.0);
  EXPECT_EQ(def.FindColumn("c"), nullptr);
}

TEST(ColumnStatsTest, DerivedSelectivityIsInverseMaxNdv) {
  catalog::Catalog cat;
  catalog::TableDef a{"a", 1000, 100, {{"x", 50.0}}};
  catalog::TableDef b{"b", 2000, 100, {{"y", 200.0}}};
  TableId ta = *cat.AddTable(a);
  TableId tb = *cat.AddTable(b);
  ASSERT_TRUE(cat.AddJoinOnColumns(ta, "x", tb, "y").ok());
  EXPECT_DOUBLE_EQ(cat.join_graph().EdgeSelectivity(ta, tb), 1.0 / 200.0);
  // The generated predicate names both columns.
  EXPECT_NE(cat.join_graph().edges()[0].predicate.find("a.x = b.y"),
            std::string::npos);
}

TEST(ColumnStatsTest, AddJoinOnColumnsValidates) {
  catalog::Catalog cat;
  TableId ta = *cat.AddTable({"a", 1000, 100, {{"x", 50.0}}});
  TableId tb = *cat.AddTable({"b", 2000, 100, {{"y", 0.0}}});
  EXPECT_TRUE(cat.AddJoinOnColumns(ta, "nope", tb, "y").IsNotFound());
  EXPECT_TRUE(cat.AddJoinOnColumns(ta, "x", tb, "nope").IsNotFound());
  EXPECT_TRUE(
      cat.AddJoinOnColumns(ta, "x", tb, "y").IsInvalidArgument());
  EXPECT_TRUE(cat.AddJoinOnColumns(99, "x", tb, "y").IsNotFound());
}

TEST(ColumnStatsTest, TpchDerivedSelectivitiesMatchForeignKeys) {
  catalog::Catalog cat = catalog::BuildTpchCatalog(1.0);
  const TableId lineitem = *cat.FindTable("lineitem");
  const TableId orders = *cat.FindTable("orders");
  const TableId customer = *cat.FindTable("customer");
  const TableId nation = *cat.FindTable("nation");
  EXPECT_DOUBLE_EQ(cat.join_graph().EdgeSelectivity(lineitem, orders),
                   1.0 / 1'500'000.0);
  EXPECT_DOUBLE_EQ(cat.join_graph().EdgeSelectivity(orders, customer),
                   1.0 / 150'000.0);
  EXPECT_DOUBLE_EQ(cat.join_graph().EdgeSelectivity(customer, nation),
                   1.0 / 25.0);
  // Key-column statistics are present.
  EXPECT_NE(cat.table(lineitem).FindColumn("l_orderkey"), nullptr);
}

// ---------------------------------------------------------------------
// Container reuse

class ContainerReuseTest : public ::testing::Test {
 protected:
  ContainerReuseTest()
      : cat_(catalog::BuildTpchCatalog(100.0)),
        simulator_(sim::EngineProfile::Hive(), &cat_) {}

  catalog::Catalog cat_;
  sim::ExecutionSimulator simulator_;
};

TEST_F(ContainerReuseTest, SimulatorSkipsStartupOnIdenticalResources) {
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ3);
  auto plan = *plan::BuildLeftDeep(q3, plan::JoinImpl::kSortMergeJoin);
  plan->VisitJoins([](plan::PlanNode& j) {
    j.set_resources(ResourceConfig(4, 20));
  });
  sim::RunPlanOptions reuse;
  reuse.reuse_containers = true;
  auto without = *simulator_.RunPlan(*plan, sim::ExecParams{});
  auto with = *simulator_.RunPlan(*plan, sim::ExecParams{}, reuse);
  EXPECT_EQ(without.reused_stages, 0);
  EXPECT_EQ(with.reused_stages, 1);  // 2 joins, second reuses
  EXPECT_LT(with.seconds, without.seconds);
  EXPECT_DOUBLE_EQ(with.joins[1].run.breakdown.startup_s, 0.0);
}

TEST_F(ContainerReuseTest, NoReuseAcrossDifferentResources) {
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ3);
  auto plan = *plan::BuildLeftDeep(q3, plan::JoinImpl::kSortMergeJoin);
  int i = 0;
  plan->VisitJoins([&](plan::PlanNode& j) {
    j.set_resources(ResourceConfig(4, 20 + 10 * i++));
  });
  sim::RunPlanOptions reuse;
  reuse.reuse_containers = true;
  auto run = *simulator_.RunPlan(*plan, sim::ExecParams{}, reuse);
  EXPECT_EQ(run.reused_stages, 0);
}

TEST_F(ContainerReuseTest, AnalysisFindsHarmonizationWin) {
  // Two SMJ stages with nearly-equivalent but distinct configurations:
  // promoting either to a shared configuration saves a startup at almost
  // no per-stage loss, so harmonization must win.
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ3);
  auto plan = *plan::BuildLeftDeep(q3, plan::JoinImpl::kSortMergeJoin);
  int i = 0;
  plan->VisitJoins([&](plan::PlanNode& j) {
    j.set_resources(ResourceConfig(4, 40 + i++));  // 40 vs 41 containers
  });
  Result<core::ReuseAnalysis> analysis =
      core::AnalyzeContainerReuse(simulator_, *plan);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_TRUE(analysis->harmonize_wins);
  EXPECT_LT(analysis->harmonized_seconds, analysis->per_operator_seconds);
  auto harmonized = *core::ApplyContainerReuse(simulator_, *plan);
  // All joins now share one configuration.
  std::optional<ResourceConfig> common;
  harmonized->VisitJoins([&](const plan::PlanNode& j) {
    ASSERT_TRUE(j.resources().has_value());
    if (!common.has_value()) common = *j.resources();
    EXPECT_EQ(*j.resources(), *common);
  });
}

TEST_F(ContainerReuseTest, KeepsPerOperatorWhenDemandsDiverge) {
  // One join genuinely needs a big container (broadcast), the other is a
  // massive shuffle that wants many small containers. Forcing either
  // configuration on both costs far more than two startups.
  std::vector<TableId> q3 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ3);
  // customer joins orders (broadcast customer, 2.4 GB), then SMJ with
  // lineitem.
  const TableId customer = *cat_.FindTable("customer");
  const TableId orders = *cat_.FindTable("orders");
  const TableId lineitem = *cat_.FindTable("lineitem");
  auto plan = plan::PlanNode::MakeJoin(
      plan::JoinImpl::kSortMergeJoin,
      plan::PlanNode::MakeJoin(plan::JoinImpl::kBroadcastHashJoin,
                               plan::PlanNode::MakeScan(customer),
                               plan::PlanNode::MakeScan(orders)),
      plan::PlanNode::MakeScan(lineitem));
  plan->mutable_left()->set_resources(ResourceConfig(10, 4));
  plan->set_resources(ResourceConfig(1, 100));
  Result<core::ReuseAnalysis> analysis =
      core::AnalyzeContainerReuse(simulator_, *plan);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  EXPECT_FALSE(analysis->harmonize_wins);
  // ApplyContainerReuse leaves the per-operator assignment untouched.
  auto kept = *core::ApplyContainerReuse(simulator_, *plan);
  EXPECT_EQ(*kept->resources(), ResourceConfig(1, 100));
  EXPECT_EQ(*kept->left()->resources(), ResourceConfig(10, 4));
}

TEST_F(ContainerReuseTest, RequiresResourceAnnotations) {
  std::vector<TableId> q12 = *catalog::TpchQueryTables(cat_, TpchQuery::kQ12);
  auto bare = *plan::BuildLeftDeep(q12, plan::JoinImpl::kSortMergeJoin);
  Result<core::ReuseAnalysis> analysis =
      core::AnalyzeContainerReuse(simulator_, *bare);
  ASSERT_FALSE(analysis.ok());
  EXPECT_TRUE(analysis.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace raqo
