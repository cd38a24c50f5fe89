#include "msoc/soc/digest.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "msoc/common/format.hpp"

namespace msoc::soc {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnvPrime;
    }
  }
  void text(std::string_view s) { bytes(s.data(), s.size()); }
  void integer(long long v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld;", v);
    text(buf);
  }
  void real(double v) {
    // Shortest round-trip rendering: equal doubles hash equally, and
    // the digest survives a write_soc/parse_soc round trip.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    text(buf);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t core_digest(const DigitalCore& core) {
  Fnv1a h;
  h.text("digital;");
  h.integer(core.inputs);
  h.integer(core.outputs);
  h.integer(core.bidirs);
  h.integer(core.patterns);
  // Chain order is kept: it is part of the declared description, and
  // wrapper design treats the lengths as a multiset anyway (Best Fit
  // Decreasing sorts internally), so hashing in order costs nothing.
  for (const int length : core.scan_chain_lengths) h.integer(length);
  // Power joins the digest only when declared: the zero-power (pure
  // width-constrained) description must keep its pre-power digest so
  // existing cache stores and golden digests stay valid.
  if (core.power != 0.0) {
    h.text("power;");
    h.real(core.power);
  }
  return h.value();
}

std::uint64_t core_digest(const AnalogCore& core) {
  Fnv1a h;
  h.text("analog;");
  for (const AnalogTestSpec& test : core.tests) {
    h.real(test.f_low.hz());
    h.real(test.f_high.hz());
    h.real(test.f_sample.hz());
    h.integer(static_cast<long long>(test.cycles));
    h.integer(test.tam_width);
    h.integer(test.resolution_bits);
    // Gated like the digital power: zero-power tests hash as before.
    if (test.power != 0.0) {
      h.text("power;");
      h.real(test.power);
    }
  }
  return h.value();
}

std::uint64_t packing_core_digest(const DigitalCore& core) {
  // Hash a literal power-stripped copy so the equivalence "packing
  // digest == core_digest of the stripped core" holds by construction,
  // whatever fields core_digest grows later.
  DigitalCore stripped = core;
  stripped.power = 0.0;
  return core_digest(stripped);
}

std::uint64_t packing_core_digest(const AnalogCore& core) {
  AnalogCore stripped = core;
  for (AnalogTestSpec& test : stripped.tests) test.power = 0.0;
  return core_digest(stripped);
}

std::uint64_t digest(const Soc& soc) {
  // Hash the SORTED per-core digests so core order cannot matter; keep
  // digital and analog in separate sorted runs (they are different
  // kinds even when a hash coincidence made their values collide).
  std::vector<std::uint64_t> digital;
  digital.reserve(soc.digital_count());
  for (const DigitalCore& core : soc.digital_cores()) {
    digital.push_back(core_digest(core));
  }
  std::sort(digital.begin(), digital.end());

  std::vector<std::uint64_t> analog;
  analog.reserve(soc.analog_count());
  for (const AnalogCore& core : soc.analog_cores()) {
    analog.push_back(core_digest(core));
  }
  std::sort(analog.begin(), analog.end());

  Fnv1a h;
  h.text("msoc-soc-digest-v1;");
  h.integer(static_cast<long long>(digital.size()));
  for (const std::uint64_t d : digital) h.bytes(&d, sizeof d);
  h.text("analog;");
  h.integer(static_cast<long long>(analog.size()));
  for (const std::uint64_t d : analog) h.bytes(&d, sizeof d);
  // The SOC-level budget changes every feasible schedule, so two SOCs
  // differing only in MaxPower must not share cache files.  Gated so an
  // unconstrained SOC keeps its pre-power digest.
  if (soc.power_constrained()) {
    h.text("maxpower;");
    h.real(soc.max_power());
  }
  // Same gating for the sliding-window budget: only a SOC that declares
  // one hashes it, so pre-window digests (and their cache stores) are
  // untouched.
  if (soc.power_windowed()) {
    h.text("powerwindow;");
    h.integer(static_cast<long long>(soc.power_window().cycles));
    h.real(soc.power_window().limit);
  }
  return h.value();
}

std::string digest_hex(const Soc& soc) { return hex64(digest(soc)); }

}  // namespace msoc::soc
