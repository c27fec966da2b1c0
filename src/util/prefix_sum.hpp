#pragma once
// Exclusive prefix sums (scans), the workhorse of the conflict build's
// COO -> CSR conversion (Algorithm 3, Line 4).

#include <cstddef>
#include <vector>

namespace picasso::util {

/// In-place exclusive scan: v[i] = sum of original v[0..i). Returns the total.
template <typename T>
T exclusive_scan_inplace(std::vector<T>& v) {
  T running{0};
  for (auto& x : v) {
    T next = running + x;
    x = running;
    running = next;
  }
  return running;
}

/// Exclusive scan into an output of size counts.size() + 1, so that
/// out.back() is the total — the natural shape for CSR offsets.
template <typename T>
std::vector<T> offsets_from_counts(const std::vector<T>& counts) {
  std::vector<T> offsets(counts.size() + 1);
  T running{0};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = running;
    running += counts[i];
  }
  offsets[counts.size()] = running;
  return offsets;
}

}  // namespace picasso::util
