#include "msoc/tam/counters.hpp"

#include <mutex>

namespace msoc::tam {

namespace {

// Each Timeline publishes once, so the mutex costs one lock per pack and
// keeps a snapshot's four totals consistent with each other.  Both are
// constant-initialized, so no static initialization order applies.
std::mutex totals_mutex;
PackCounterSnapshot totals;

}  // namespace

void add_pack_counters(const PackCounterSnapshot& counts) noexcept {
  const std::lock_guard<std::mutex> lock(totals_mutex);
  totals.admission_checks += counts.admission_checks;
  totals.events_visited += counts.events_visited;
  totals.retries += counts.retries;
  totals.reservations += counts.reservations;
}

PackCounterSnapshot snapshot_pack_counters() noexcept {
  const std::lock_guard<std::mutex> lock(totals_mutex);
  return totals;
}

void reset_pack_counters() noexcept {
  const std::lock_guard<std::mutex> lock(totals_mutex);
  totals = PackCounterSnapshot{};
}

}  // namespace msoc::tam
