#include "core/palette.hpp"

#include <algorithm>
#include <cmath>

namespace picasso::core {

IterationPalette compute_palette(std::uint32_t n_active, double palette_percent,
                                 double alpha, std::uint32_t base_color) {
  IterationPalette out;
  out.base_color = base_color;
  if (n_active == 0) return out;

  const double p_raw = palette_percent / 100.0 * static_cast<double>(n_active);
  out.palette_size = static_cast<std::uint32_t>(std::lround(p_raw));
  if (out.palette_size < 1) out.palette_size = 1;
  if (out.palette_size > n_active) out.palette_size = n_active;

  // L = ceil(alpha * log10 n). The paper writes "alpha log |V|" without a
  // base (asymptotically equivalent); base 10 reproduces the empirical
  // conflict-edge fractions of its Fig. 2/Table configurations (a few
  // percent of |E| in normal mode), where natural log would put L^2/P — the
  // expected conflict probability per edge — an order of magnitude higher
  // at these vertex counts.
  const double l_raw = alpha * std::log10(static_cast<double>(n_active));
  auto list = static_cast<std::uint32_t>(std::ceil(l_raw));
  if (list < 1) list = 1;
  out.list_size = std::min(list, out.palette_size);
  return out;
}

std::uint32_t ColorLists::first_shared_color(std::uint32_t u,
                                             std::uint32_t v) const {
  const auto lu = list(u);
  const auto lv = list(v);
  std::size_t i = 0, j = 0;
  while (i < lu.size() && j < lv.size()) {
    if (lu[i] == lv[j]) return lu[i];
    if (lu[i] < lv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return kNoShared;
}

void ColorLists::build_signatures() {
  const std::uint32_t n = num_vertices();
  sigs_.assign(n, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint64_t sig = 0;
    for (std::uint32_t c : list(v)) sig |= std::uint64_t{1} << (c & 63u);
    sigs_[v] = sig;
  }
}

ColorLists assign_random_lists(std::uint32_t num_vertices,
                               const IterationPalette& palette,
                               std::uint64_t seed, std::uint64_t iteration) {
  ColorLists lists(num_vertices, palette.list_size);
  for (std::uint32_t v = 0; v < num_vertices; ++v) {
    util::Xoshiro256 rng = util::keyed_rng(seed, iteration, v);
    util::sample_without_replacement(palette.palette_size,
                                     lists.mutable_list(v), rng);
  }
  return lists;
}

}  // namespace picasso::core
