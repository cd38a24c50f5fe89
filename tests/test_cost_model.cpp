#include "msoc/plan/cost_model.hpp"

#include <gtest/gtest.h>

#include "msoc/common/error.hpp"
#include "msoc/plan/frontier.hpp"
#include "msoc/plan/pipeline.hpp"
#include "msoc/soc/benchmarks.hpp"

namespace msoc::plan {
namespace {

const mswrap::Partition kPair({{0, 1}, {2}, {3}, {4}});

TEST(Weights, MustSumToOne) {
  CostWeights w;
  w.time = 0.6;
  w.area = 0.6;
  EXPECT_THROW(w.validate(), InfeasibleError);
  w.time = -0.1;
  w.area = 1.1;
  EXPECT_THROW(w.validate(), InfeasibleError);
  w.time = 0.25;
  w.area = 0.75;
  EXPECT_NO_THROW(w.validate());
}

TEST(Planning, NeedsAnalogCoresAndValidWeights) {
  const soc::Soc digital = soc::make_p93791();
  EXPECT_THROW(FrontierEngine(digital, FrontierOptions{}), InfeasibleError);
  const soc::Soc ms = soc::make_p93791m();
  FrontierOptions lopsided;
  lopsided.weights = {0.6, 0.6};
  EXPECT_THROW(FrontierEngine(ms, lopsided), InfeasibleError);
  EXPECT_NO_THROW(FrontierEngine(ms, FrontierOptions{}));
}

TEST(Price, AllShareIsTheBaseline) {
  const mswrap::Partition all_share({{0, 1, 2, 3, 4}});
  const CombinationCost cost =
      price(all_share, "{A,B,C,D,E}", 100.0, 5000, 5000, CostWeights{});
  EXPECT_EQ(cost.c_time, 100.0);
  EXPECT_EQ(cost.test_time, 5000u);
  EXPECT_EQ(cost.label, "{A,B,C,D,E}");
  EXPECT_EQ(cost.partition, all_share);
}

TEST(Price, CTimeIsTheShareOfTMax) {
  EXPECT_EQ(c_time(2500, 5000), 50.0);
  EXPECT_EQ(price(kPair, "pair", 40.0, 4000, 5000, CostWeights{}).c_time,
            80.0);
}

TEST(Price, PackingPastTMaxIsAnInvariantViolation) {
  // The packer's serialized fallback pins every partition at or below
  // the all-share baseline, so C_time never exceeds 100.
  EXPECT_THROW((void)price(kPair, "pair", 40.0, 5001, 5000, CostWeights{}),
               LogicError);
}

TEST(Price, TotalIsWeightedSum) {
  const CostWeights weights{0.75, 0.25};
  const CombinationCost cost =
      price(kPair, "pair", 60.0, 4500, 5000, weights);
  EXPECT_EQ(cost.c_area, 60.0);
  EXPECT_NEAR(cost.total, 0.75 * cost.c_time + 0.25 * cost.c_area, 1e-12);
  EXPECT_EQ(cost.total, weights.total(cost.c_time, cost.c_area));
}

TEST(Prelim, PartitionSpaceUsesEq3) {
  // Eq. 3 swaps C_time for the normalized analog lower bound.
  const CostWeights weights{0.25, 0.75};
  EXPECT_NEAR(weights.total(40.0, 80.0), 0.25 * 40.0 + 0.75 * 80.0, 1e-12);
  const soc::Soc soc = soc::make_p93791m();
  const PartitionSpace space(soc, weights, {}, {}, {});
  ASSERT_EQ(space.cells.size(), 26u);
  for (const PartitionCell& cell : space.cells) {
    EXPECT_EQ(cell.prelim,
              weights.total(cell.evaluation.analog_lb_normalized,
                            cell.evaluation.area_cost))
        << cell.evaluation.label;
  }
}

}  // namespace
}  // namespace msoc::plan
