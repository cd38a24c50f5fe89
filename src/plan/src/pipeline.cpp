#include "msoc/plan/pipeline.hpp"

#include <limits>
#include <map>

#include "msoc/common/error.hpp"
#include "msoc/common/logging.hpp"
#include "msoc/plan/result_cache.hpp"
#include "msoc/soc/digest.hpp"

namespace msoc::plan {

// --- Stage 1: partition enumeration. ---

PartitionSpace::PartitionSpace(const soc::Soc& soc,
                               const CostWeights& weights,
                               const mswrap::WrapperAreaModel& area_model,
                               const mswrap::SharingPolicy& policy,
                               const mswrap::EnumerationOptions& enumeration)
    : all_share(std::vector<std::vector<std::size_t>>{
          [&soc] {
            std::vector<std::size_t> everyone(soc.analog_count());
            for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
            return everyone;
          }()}) {
  std::vector<mswrap::SharingEvaluation> all = mswrap::evaluate_combinations(
      soc.analog_cores(), area_model, policy, enumeration);
  for (mswrap::SharingEvaluation& e : all) {
    if (!e.feasible) {
      log_debug("combination ", e.label, " dropped: sharing policy");
      continue;
    }
    PartitionCell cell;
    cell.prelim = weights.total(e.analog_lb_normalized, e.area_cost);
    cell.analog_lb = e.analog_lb_cycles;
    cell.key_full =
        partition_key(soc.analog_cores(), e.partition, /*powered=*/true);
    cell.key_packing =
        partition_key(soc.analog_cores(), e.partition, /*powered=*/false);
    cell.evaluation = std::move(e);
    cells.push_back(std::move(cell));
  }
  require(!cells.empty(), "no feasible sharing combination");

  all_share_key_full =
      partition_key(soc.analog_cores(), all_share, /*powered=*/true);
  all_share_key_packing =
      partition_key(soc.analog_cores(), all_share, /*powered=*/false);

  // Same grouping and representative choice as optimize_cost_heuristic:
  // shape groups in sorted-shape order, members in enumeration order,
  // representative = first Eq. 3 minimum.
  std::map<std::vector<std::size_t>, std::vector<std::size_t>> by_shape;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    by_shape[cells[i].evaluation.partition.shape()].push_back(i);
  }
  for (const auto& [shape, members] : by_shape) {
    PartitionGroup group;
    group.members = members;
    double best_prelim = std::numeric_limits<double>::infinity();
    for (const std::size_t index : members) {
      if (cells[index].prelim < best_prelim) {
        best_prelim = cells[index].prelim;
        group.representative = index;
      }
    }
    groups.push_back(std::move(group));
  }
}

std::vector<bool> PartitionSpace::classify_clean(
    const soc::Soc& soc, const soc::DigestDelta& delta,
    bool packing_flavor) const {
  const soc::DigestSetDelta& digital =
      packing_flavor ? delta.digital_packing : delta.digital;
  const soc::DigestSetDelta& analog =
      packing_flavor ? delta.analog_packing : delta.analog;

  // Every partition's makespan depends on the full digital test load
  // (digital and analog tests pack onto the same TAM), so ANY digital
  // change — edit, add, remove — dirties every cell.  all_clean also
  // rejects analog add/remove cheaply; without it the per-member check
  // below would still be sound (keys over different core counts can
  // never collide), but an all-dirty verdict is the honest one.
  const bool context_clean = digital.all_clean() &&
                             analog.dirty_old.size() ==
                                 analog.dirty_new.size();
  std::vector<bool> clean(cells.size(), false);
  if (!context_clean) return clean;

  std::vector<std::uint64_t> member_digest;
  member_digest.reserve(soc.analog_count());
  for (const soc::AnalogCore& core : soc.analog_cores()) {
    member_digest.push_back(packing_flavor ? soc::packing_core_digest(core)
                                           : soc::core_digest(core));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bool cell_clean = true;
    for (const std::vector<std::size_t>& group :
         cells[i].evaluation.partition.groups()) {
      for (const std::size_t index : group) {
        if (analog.is_dirty(member_digest[index])) {
          cell_clean = false;
          break;
        }
      }
      if (!cell_clean) break;
    }
    clean[i] = cell_clean;
  }
  return clean;
}

}  // namespace msoc::plan
