#pragma once
// Shared helpers for the suites that pin one pack against another.

#include <gtest/gtest.h>

#include <vector>

#include "msoc/mswrap/sharing.hpp"
#include "msoc/soc/soc.hpp"
#include "msoc/tam/packing.hpp"
#include "msoc/tam/schedule.hpp"

namespace msoc::tam {

/// Every partition of `soc`'s analog cores, no-sharing included.
inline std::vector<AnalogPartition> every_partition(const soc::Soc& soc) {
  mswrap::EnumerationOptions options;
  options.include_no_sharing = true;
  std::vector<AnalogPartition> partitions;
  for (const mswrap::SharingEvaluation& e : mswrap::evaluate_combinations(
           soc.analog_cores(), {}, {}, options)) {
    partitions.push_back(
        mswrap::to_analog_partition(soc.analog_cores(), e.partition));
  }
  return partitions;
}

/// Checks `actual` against `expected` test for test: identity, start,
/// width, wires and wrapper group.
inline void expect_same_schedule(const Schedule& actual,
                                 const Schedule& expected) {
  ASSERT_EQ(actual.tests.size(), expected.tests.size());
  for (std::size_t i = 0; i < expected.tests.size(); ++i) {
    const ScheduledTest& a = actual.tests[i];
    const ScheduledTest& e = expected.tests[i];
    EXPECT_EQ(a.core_name, e.core_name) << "test " << i;
    EXPECT_EQ(a.test_name, e.test_name) << "test " << i;
    EXPECT_EQ(a.start, e.start) << e.core_name;
    EXPECT_EQ(a.width, e.width) << e.core_name;
    EXPECT_EQ(a.wires, e.wires) << e.core_name;
    EXPECT_EQ(a.wrapper_group, e.wrapper_group) << e.core_name;
  }
}

}  // namespace msoc::tam
