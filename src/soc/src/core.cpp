#include "msoc/soc/core.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "msoc/common/error.hpp"

namespace msoc::soc {

long long DigitalCore::total_scan_cells() const {
  return std::accumulate(scan_chain_lengths.begin(),
                         scan_chain_lengths.end(), 0LL);
}

void DigitalCore::validate() const {
  // design_wrapper validates on every call, so a message is built only
  // when its check fails.
  const auto check = [this](bool ok, const char* what) {
    if (!ok) throw InfeasibleError(std::string(what) + ": core " + name);
  };
  check(inputs >= 0 && outputs >= 0 && bidirs >= 0,
        "I/O counts must be non-negative");
  // A core with no patterns has a zero-length test, which no schedule
  // can place.
  check(patterns > 0, "pattern count must be positive");
  check(power >= 0.0, "test power must be non-negative");
  for (int len : scan_chain_lengths) {
    check(len > 0, "scan chain lengths must be positive");
  }
  // Not a sum: counts up to INT_MAX each would overflow it.
  check(inputs > 0 || outputs > 0 || bidirs > 0 || !scan_chain_lengths.empty(),
        "core has neither I/O nor scan");
}

Cycles AnalogCore::total_cycles() const {
  Cycles total = 0;
  for (const AnalogTestSpec& t : tests) total += t.cycles;
  return total;
}

int AnalogCore::tam_width() const {
  int w = 1;
  for (const AnalogTestSpec& t : tests) w = std::max(w, t.tam_width);
  return w;
}

Hertz AnalogCore::max_sampling_frequency() const {
  Hertz f{0.0};
  for (const AnalogTestSpec& t : tests) f = std::max(f, t.f_sample);
  return f;
}

int AnalogCore::resolution_bits() const {
  int b = 0;
  for (const AnalogTestSpec& t : tests) b = std::max(b, t.resolution_bits);
  return b;
}

double AnalogCore::max_power() const {
  double p = 0.0;
  for (const AnalogTestSpec& t : tests) p = std::max(p, t.power);
  return p;
}

bool AnalogCore::tests_equivalent(const AnalogCore& other) const {
  if (tests.size() != other.tests.size()) return false;
  // Power joins the key: under a power budget two cores with identical
  // timing but different dissipation are NOT interchangeable.
  using Key = std::tuple<Cycles, int, double, int, double>;
  const auto keys = [](const AnalogCore& c) {
    std::vector<Key> out;
    out.reserve(c.tests.size());
    for (const AnalogTestSpec& t : c.tests) {
      out.emplace_back(t.cycles, t.tam_width, t.f_sample.hz(),
                       t.resolution_bits, t.power);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  return keys(*this) == keys(other);
}

void AnalogCore::validate() const {
  require(!tests.empty(), "analog core has no tests: " + name);
  for (const AnalogTestSpec& t : tests) {
    require(t.cycles > 0, "test length must be positive: " + name + "." +
                              t.name);
    require(t.tam_width >= 1, "test TAM width must be >= 1: " + name + "." +
                                  t.name);
    require(t.resolution_bits >= 1 && t.resolution_bits <= 16,
            "resolution out of range: " + name + "." + t.name);
    require(t.f_sample.hz() > 0.0, "sampling frequency must be positive: " +
                                       name + "." + t.name);
    require(t.f_low <= t.f_high, "band edges out of order: " + name + "." +
                                     t.name);
    require(t.power >= 0.0,
            "test power must be non-negative: " + name + "." + t.name);
  }
}

}  // namespace msoc::soc
