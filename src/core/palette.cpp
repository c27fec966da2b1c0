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

ColorLists::ColorLists(std::uint32_t num_vertices, std::uint32_t list_size,
                       std::uint32_t palette_size)
    : num_vertices_(num_vertices),
      list_size_(list_size),
      palette_size_(palette_size) {
  const std::size_t entries = static_cast<std::size_t>(num_vertices) * list_size;
  if (narrow()) {
    narrow_.resize(entries);
  } else {
    wide_.resize(entries);
  }
}

void ColorLists::release_rows() {
  // Swapped out, not assigned {}: that would keep the capacity.
  std::vector<std::uint16_t>().swap(narrow_);
  std::vector<std::uint32_t>().swap(wide_);
  released_ = true;
}

std::uint32_t ColorLists::redraw(std::uint32_t v, std::uint32_t slot) const {
  util::Xoshiro256 rng = util::keyed_rng(seed_, iteration_, v);
  return util::sample_rank(palette_size_, list_size_, slot, rng);
}

void ColorLists::build_signatures() {
  sigs_.assign(num_vertices_, 0);
  visit_rows([this](auto rows) {
    for (std::uint32_t v = 0; v < num_vertices_; ++v) {
      std::uint64_t sig = 0;
      for (const std::uint32_t c : rows.row(v)) {
        sig |= std::uint64_t{1} << (c & 63u);
      }
      sigs_[v] = sig;
    }
  });
}

ColorLists assign_random_lists(std::uint32_t num_vertices,
                               const IterationPalette& palette,
                               std::uint64_t seed, std::uint64_t iteration) {
  ColorLists lists(num_vertices, palette.list_size, palette.palette_size);
  lists.seed_ = seed;
  lists.iteration_ = iteration;
  const auto draw = [&](auto* data) {
    for (std::uint32_t v = 0; v < num_vertices; ++v) {
      util::Xoshiro256 rng = util::keyed_rng(seed, iteration, v);
      util::sample_without_replacement(
          palette.palette_size,
          std::span(data + static_cast<std::size_t>(v) * palette.list_size,
                    palette.list_size),
          rng);
    }
  };
  if (lists.narrow()) {
    draw(lists.narrow_.data());
  } else {
    draw(lists.wide_.data());
  }
  return lists;
}

}  // namespace picasso::core
