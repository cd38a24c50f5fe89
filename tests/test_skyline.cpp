#include "msoc/tam/skyline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "msoc/common/error.hpp"
#include "msoc/common/rng.hpp"

namespace msoc::tam {
namespace {

/// Reference envelope: the ordered-map Skyline the flat vector replaced,
/// its add and lookup code kept verbatim so the differential suite below
/// can race the two on the same adds.  Its arithmetic order is the contract: the
/// vector version must reproduce every level bit for bit, doubles too.
template <typename Load>
class MapSkyline {
 public:
  using Map = std::map<Cycles, Load>;
  using const_iterator = typename Map::const_iterator;

  void add(Cycles start, Cycles end, Load amount) {
    check_invariant(start < end, "skyline segment must be non-empty");
    auto hi = boundary(end);    // keeps the pre-add level past `end`
    auto lo = boundary(start);  // copies the level reaching `start`
    for (auto it = lo; it != hi; ++it) it->second += amount;
    coalesce(hi);
    coalesce(lo);
  }

  [[nodiscard]] Load level_at(Cycles t) const {
    const const_iterator it = floor(t);
    return it == level_.end() ? Load{} : it->second;
  }

  [[nodiscard]] const_iterator floor(Cycles t) const {
    auto it = level_.upper_bound(t);
    if (it == level_.begin()) return level_.end();
    return std::prev(it);
  }

  [[nodiscard]] const_iterator begin() const noexcept {
    return level_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return level_.end(); }

 private:
  using iterator = typename Map::iterator;

  iterator boundary(Cycles t) {
    auto it = level_.lower_bound(t);
    if (it != level_.end() && it->first == t) return it;
    const Load level =
        it == level_.begin() ? Load{} : std::prev(it)->second;
    return level_.emplace_hint(it, t, level);
  }

  void coalesce(iterator it) {
    if (it == level_.end()) return;
    const Load prev_level =
        it == level_.begin() ? Load{} : std::prev(it)->second;
    if (it->second == prev_level) level_.erase(it);
  }

  Map level_;
};

template <typename Envelope>
auto segments_of(const Envelope& envelope) {
  using Load = decltype(envelope.begin()->second);
  return std::vector<std::pair<Cycles, Load>>(envelope.begin(),
                                              envelope.end());
}

/// Asserts both envelopes hold the same segments (operator==, so double
/// levels must match bit for bit) and answer floor/level_at alike.
template <typename Load>
void expect_same_envelope(const Skyline<Load>& flat,
                          const MapSkyline<Load>& ref,
                          const std::vector<Cycles>& probes) {
  ASSERT_TRUE(segments_of(flat) == segments_of(ref));
  for (const Cycles t : probes) {
    const auto f = flat.floor(t);
    const auto r = ref.floor(t);
    ASSERT_EQ(f == flat.end(), r == ref.end()) << "t=" << t;
    if (f != flat.end()) {
      ASSERT_EQ(f->first, r->first) << "t=" << t;
      ASSERT_TRUE(f->second == r->second) << "t=" << t;
    }
    ASSERT_TRUE(flat.level_at(t) == ref.level_at(t)) << "t=" << t;
  }
}

/// One randomized round: `adds` reservations whose boundaries snap to a
/// grid of `grid` points `step` apart (small grids force shared and
/// abutting boundaries), every fourth one nested inside the previous
/// range, and every fifth one later withdrawn with the negated amount
/// so interior edges coalesce away.  Compares the full envelopes every
/// `compare_every` adds and at the end; *peak_segments receives the
/// envelope's size before the withdrawals.
template <typename Load, typename Amount>
void race_round(Rng& rng, int adds, Cycles grid, Cycles step,
                int compare_every, Amount draw_amount,
                std::size_t* peak_segments) {
  Skyline<Load> flat;
  MapSkyline<Load> ref;
  std::vector<std::pair<std::pair<Cycles, Cycles>, Load>> withdraw;
  Cycles last_start = 0;
  Cycles last_end = step;
  std::vector<Cycles> probes;
  for (int i = 0; i < adds; ++i) {
    Cycles start = rng.uniform_u64(0, grid - 1) * step;
    Cycles end = start + rng.uniform_u64(1, 8) * step;
    if (i % 4 == 3 && last_end - last_start > step) {
      const Cycles slots = (last_end - last_start) / step;
      start = last_start + rng.uniform_u64(0, slots - 1) * step;
      end = start + step;
    }
    const Load amount = draw_amount();
    flat.add(start, end, amount);
    ref.add(start, end, amount);
    if (i % 5 == 4) withdraw.push_back({{start, end}, amount});
    last_start = start;
    last_end = end;
    probes.push_back(start);
    probes.push_back(end);
    probes.push_back(end - 1);
    if ((i + 1) % compare_every == 0) {
      expect_same_envelope(flat, ref, probes);
      probes.clear();
    }
  }
  *peak_segments = flat.segment_count();
  for (const auto& [range, amount] : withdraw) {
    flat.add(range.first, range.second, -amount);
    ref.add(range.first, range.second, -amount);
  }
  for (Cycles t = 0; t <= (grid + 9) * step; t += step) {
    probes.push_back(t);
    probes.push_back(t + step / 2);
  }
  expect_same_envelope(flat, ref, probes);
}

/// Reference level: the delta-map prefix sum the profiles used to keep.
template <typename Load>
Load reference_level(const std::map<Cycles, Load>& delta, Cycles t) {
  Load level{};
  for (const auto& [time, d] : delta) {
    if (time > t) break;
    level += d;
  }
  return level;
}

TEST(Skyline, EmptyEnvelopeIsFlatZero) {
  Skyline<long long> sky;
  EXPECT_TRUE(sky.empty());
  EXPECT_EQ(sky.segment_count(), 0u);
  EXPECT_EQ(sky.level_at(0), 0);
  EXPECT_EQ(sky.level_at(1000), 0);
  EXPECT_EQ(sky.peak(), 0);
  EXPECT_EQ(sky.floor(5), sky.end());
}

TEST(Skyline, SingleAddMakesOneSegmentAndAZeroTail) {
  Skyline<long long> sky;
  sky.add(10, 20, 3);
  EXPECT_EQ(sky.segment_count(), 2u);  // {10: 3}, {20: 0}
  EXPECT_EQ(sky.level_at(9), 0);
  EXPECT_EQ(sky.level_at(10), 3);
  EXPECT_EQ(sky.level_at(19), 3);
  EXPECT_EQ(sky.level_at(20), 0);
  EXPECT_EQ(sky.peak(), 3);
}

TEST(Skyline, OverlappingAddsStack) {
  Skyline<long long> sky;
  sky.add(0, 30, 2);
  sky.add(10, 20, 5);
  EXPECT_EQ(sky.level_at(5), 2);
  EXPECT_EQ(sky.level_at(15), 7);
  EXPECT_EQ(sky.level_at(25), 2);
  EXPECT_EQ(sky.level_at(30), 0);
  EXPECT_EQ(sky.peak(), 7);
  EXPECT_EQ(sky.segment_count(), 4u);  // 0:2, 10:7, 20:2, 30:0
}

TEST(Skyline, EqualLevelNeighborsCoalesce) {
  Skyline<long long> sky;
  sky.add(0, 10, 3);
  sky.add(10, 20, 3);  // same level, adjacent: one segment
  EXPECT_EQ(sky.segment_count(), 2u);  // {0: 3}, {20: 0}
  EXPECT_EQ(sky.level_at(10), 3);
  // A reservation ending exactly where an equal one starts also merges.
  sky.add(20, 30, 3);
  EXPECT_EQ(sky.segment_count(), 2u);
  EXPECT_EQ(sky.level_at(29), 3);
  EXPECT_EQ(sky.level_at(30), 0);
}

TEST(Skyline, DrainsToExactZeroPastTheLastSegment) {
  Skyline<double> sky;
  for (int i = 0; i < 100; ++i) {
    sky.add(static_cast<Cycles>(i), static_cast<Cycles>(i) + 1,
            0.1 + i * 0.001);
  }
  // Untouched tail segments are never accumulated into, so the drained
  // level is exactly 0.0 — not float residue.
  EXPECT_EQ(sky.level_at(200), 0.0);
}

TEST(Skyline, RejectsEmptySegments) {
  Skyline<long long> sky;
  EXPECT_THROW(sky.add(10, 10, 1), LogicError);
  EXPECT_THROW(sky.add(10, 5, 1), LogicError);
}

TEST(SkylineProperty, IntegerLevelsMatchDeltaMapEverywhere) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    Skyline<long long> sky;
    std::map<Cycles, long long> delta;
    for (int i = 0; i < 50; ++i) {
      const Cycles start = rng.uniform_u64(0, 300);
      const Cycles len = rng.uniform_u64(1, 60);
      const long long amount = rng.uniform_int(1, 16);
      sky.add(start, start + len, amount);
      delta[start] += amount;
      delta[start + len] -= amount;
    }
    for (Cycles t = 0; t <= 400; ++t) {
      ASSERT_EQ(sky.level_at(t), reference_level(delta, t)) << "t=" << t;
    }
    // Canonical form: no segment repeats its predecessor's level, and
    // the envelope ends drained.
    long long prev = 0;
    for (const auto& [start, level] : sky) {
      EXPECT_NE(level, prev) << "segment at " << start;
      prev = level;
    }
    EXPECT_EQ(prev, 0);
  }
}

TEST(SkylineProperty, DoubleLevelsMatchDeltaMapWithinUlps) {
  Rng rng(8);
  for (int round = 0; round < 20; ++round) {
    Skyline<double> sky;
    std::map<Cycles, double> delta;
    for (int i = 0; i < 40; ++i) {
      const Cycles start = rng.uniform_u64(0, 200);
      const Cycles len = rng.uniform_u64(1, 50);
      const double amount = rng.uniform(0.1, 50.0);
      sky.add(start, start + len, amount);
      delta[start] += amount;
      delta[start + len] -= amount;
    }
    for (Cycles t = 0; t <= 300; t += 3) {
      const double expected = reference_level(delta, t);
      ASSERT_NEAR(sky.level_at(t), expected,
                  1e-9 * (std::abs(expected) + 1.0))
          << "t=" << t;
    }
  }
}

long long draw_int(Rng& rng) { return rng.uniform_int(1, 16); }
double draw_double(Rng& rng) { return rng.uniform(0.1, 50.0); }

TEST(SkylineDifferential, IntegerLevelsMatchMapReferenceOnSharedBoundaries) {
  Rng rng(101);
  std::size_t segments = 0;
  for (int round = 0; round < 40; ++round) {
    race_round<long long>(rng, 200, 24, 10, 1, [&] { return draw_int(rng); },
                          &segments);
  }
}

TEST(SkylineDifferential, DoubleLevelsMatchMapReferenceBitForBit) {
  Rng rng(102);
  std::size_t segments = 0;
  for (int round = 0; round < 40; ++round) {
    race_round<double>(rng, 200, 24, 10, 1, [&] { return draw_double(rng); },
                       &segments);
  }
}

TEST(SkylineDifferential, MatchesMapReferenceAtTenThousandSegments) {
  Rng rng(103);
  std::size_t segments = 0;
  race_round<long long>(rng, 5000, 200000, 5, 500,
                        [&] { return draw_int(rng); }, &segments);
  EXPECT_GT(segments, 8000u);
  race_round<double>(rng, 5000, 200000, 5, 500,
                     [&] { return draw_double(rng); }, &segments);
  EXPECT_GT(segments, 8000u);
}

}  // namespace
}  // namespace msoc::tam
