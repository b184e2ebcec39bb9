// Internal helpers shared by the single-process (campaign.cpp) and
// cross-rank (rank_campaign.cpp) campaign engines: width-weighted site
// selection and the snapshot byte-budget cap. Not part of the public
// surface.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ft::fault::detail {

/// One width-weighted draw resolved to its site: `site` indexes the
/// population (kNoSite when the draw lies past its total width) and `bit`
/// is the drawn offset within that site.
struct WeightedPick {
  static constexpr std::size_t kNoSite = ~std::size_t{0};
  std::size_t site = kNoSite;
  std::uint32_t bit = 0;
};

/// Resolve global bit offsets `draws` (sites weighted by `width_of`, laid
/// end to end in population order) to the sites containing them. The draws
/// are sorted with their trial index and resolved in one cumulative pass,
/// so the cost is one walk up to the largest draw plus a sort of the draws,
/// not one population walk per draw. picks[t] answers draws[t].
template <typename Site, typename WidthFn>
std::vector<WeightedPick> pick_weighted(const std::vector<Site>& sites,
                                        std::span<const std::uint64_t> draws,
                                        const WidthFn& width_of) {
  std::vector<std::pair<std::uint64_t, std::size_t>> order(draws.size());
  for (std::size_t t = 0; t < draws.size(); ++t) order[t] = {draws[t], t};
  std::sort(order.begin(), order.end());
  std::vector<WeightedPick> picks(draws.size());
  constexpr std::size_t kBlock = 8;
  std::size_t i = 0;
  std::uint64_t base = 0;  // summed width of sites[0, i)
  for (const auto& [u, t] : order) {
    // Skip whole blocks of sites below the draw, then step site by site.
    while (i + kBlock <= sites.size()) {
      std::uint64_t w = 0;
      for (std::size_t k = 0; k < kBlock; ++k) w += width_of(sites[i + k]);
      if (u - base < w) break;
      base += w;
      i += kBlock;
    }
    while (i < sites.size()) {
      const std::uint64_t w = width_of(sites[i]);
      if (u - base < w) break;
      base += w;
      ++i;
    }
    if (i == sites.size()) break;  // this draw and every later one: no site
    picks[t] = {i, static_cast<std::uint32_t>(u - base)};
  }
  return picks;
}

/// Lower a snapshot-count cap to a byte budget: a snapshot is dominated by
/// its copy of program memory (`memory_size`), plus a small overhead for
/// frames/slots. `max_bytes == 0` leaves the cap alone.
inline std::size_t cap_snapshots_to_bytes(std::size_t max_snapshots,
                                          std::size_t max_bytes,
                                          std::size_t memory_size) {
  if (max_bytes == 0) return max_snapshots;
  const std::size_t snapshot_bytes = memory_size + std::size_t{4096};
  return std::min(max_snapshots,
                  std::max<std::size_t>(1, max_bytes / snapshot_bytes));
}

}  // namespace ft::fault::detail
