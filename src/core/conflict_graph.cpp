#include "core/conflict_graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace picasso::core {

const char* to_string(ConflictKernel k) noexcept {
  switch (k) {
    case ConflictKernel::Reference: return "reference";
    case ConflictKernel::Indexed: return "indexed";
    case ConflictKernel::Auto: return "auto";
  }
  return "?";
}

namespace detail {

void fill_csr(const std::vector<std::uint64_t>& offsets,
              const std::uint32_t* coo, std::uint64_t num_edges,
              std::uint32_t* neighbors_out) {
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::uint64_t e = 0; e < num_edges; ++e) {
    const std::uint32_t u = coo[2 * e];
    const std::uint32_t v = coo[2 * e + 1];
    neighbors_out[cursor[u]++] = v;
    neighbors_out[cursor[v]++] = u;
  }
  const std::size_t n = offsets.size() - 1;
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(neighbors_out + offsets[v], neighbors_out + offsets[v + 1]);
  }
}

std::uint32_t color_index_slot_bits(std::uint32_t n, std::uint32_t list_size) {
  const auto bits = static_cast<std::uint32_t>(
      list_size > 1 ? std::bit_width(list_size - 1) : 0);
  if ((std::uint64_t{n} << bits) > ColorIndex::kEnd) {
    throw std::length_error("color index: n = " + std::to_string(n) +
                            " vertices with lists of L = " +
                            std::to_string(list_size) +
                            " exceed 32-bit packed (vertex, slot) entries");
  }
  return bits;
}

ColorIndex build_color_index(const ColorLists& lists,
                             std::uint32_t palette_size) {
  const std::uint32_t n = lists.num_vertices();
  const std::uint32_t l = lists.list_size();
  ColorIndex index;
  index.slot_bits = color_index_slot_bits(n, l);
  index.offsets.assign(palette_size + 1, 0);
  index.members.resize(static_cast<std::size_t>(n) * l);
  lists.visit_rows([&](auto rows) {
    for (std::uint32_t v = 0; v < n; ++v) {
      for (const std::uint32_t c : rows.row(v)) ++index.offsets[c + 1];
    }
    for (std::uint32_t c = 0; c < palette_size; ++c) {
      index.offsets[c + 1] += index.offsets[c];
    }
    std::vector<std::uint32_t> cursor(index.offsets.begin(),
                                      index.offsets.end() - 1);
    for (std::uint32_t v = 0; v < n; ++v) {
      const auto list = rows.row(v);
      for (std::uint32_t k = 0; k < l; ++k) {
        index.members[cursor[list[k]]++] = (v << index.slot_bits) | k;
      }
    }
  });
  return index;
}

}  // namespace detail
}  // namespace picasso::core
