// tam::Packer, the one packer of a (SOC, width, options): its lazily
// packed all-share schedule, its check of lent staircase tables, and
// its const schedule() shared by threads.  test_makespan_bound pins
// every Packer pack to schedule_soc; this suite runs under TSan.

#include <gtest/gtest.h>

#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/parallel.hpp"
#include "msoc/soc/benchmarks.hpp"
#include "msoc/tam/packing.hpp"
#include "schedule_checks.hpp"

namespace msoc::tam {
namespace {

TEST(Packer, AllShareIsPackedOnceAsItsPartitionWouldBe) {
  const soc::Soc soc = soc::make_p93791m();
  const Packer packer(soc, 32);
  const Schedule& all_share = packer.all_share();
  EXPECT_EQ(&packer.all_share(), &all_share);  // kept, not repacked
  expect_same_schedule(all_share,
                       packer.schedule(all_share_partition(soc)));
  // T_max bounds every partition: the serialized fallback.
  for (const AnalogPartition& partition : every_partition(soc)) {
    EXPECT_LE(packer.schedule(partition).makespan(), all_share.makespan());
  }
}

TEST(Packer, LentTablesMustCoverTheSocAndWidth) {
  const soc::Soc soc = soc::make_p93791m();
  const ParetoTables narrow = compute_pareto_tables(soc, 16);
  EXPECT_THROW(Packer(soc, 32, {}, &narrow), InfeasibleError);
  const ParetoTables other = compute_pareto_tables(soc::make_d695m(), 32);
  EXPECT_THROW(Packer(soc, 32, {}, &other), InfeasibleError);
  EXPECT_NO_THROW(Packer(soc, 16, {}, &narrow));
}

TEST(Packer, ConcurrentSchedulesEqualTheSerialLoop) {
  const soc::Soc soc = soc::make_p93791m();
  const std::vector<AnalogPartition> partitions = every_partition(soc);
  // The threads also race to pack the shared all-share fallback.
  const Packer shared(soc, 32);
  std::vector<Schedule> parallel(partitions.size());
  parallel_for(partitions.size(), 4, [&](std::size_t i) {
    parallel[i] = shared.schedule(partitions[i]);
  });
  const Packer serial(soc, 32);
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    expect_same_schedule(parallel[i], serial.schedule(partitions[i]));
  }
}

}  // namespace
}  // namespace msoc::tam
