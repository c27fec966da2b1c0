#include "core/conflict_graph.hpp"

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
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t c : lists.list(v)) ++index.offsets[c + 1];
  }
  for (std::uint32_t c = 0; c < palette_size; ++c) {
    index.offsets[c + 1] += index.offsets[c];
  }
  index.members.resize(static_cast<std::size_t>(n) * l);
  std::vector<std::uint32_t> cursor(index.offsets.begin(),
                                    index.offsets.end() - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    const auto list = lists.list(v);
    for (std::uint32_t k = 0; k < l; ++k) {
      index.members[cursor[list[k]]++] = (v << index.slot_bits) | k;
    }
  }
  return index;
}

}  // namespace detail
}  // namespace picasso::core
