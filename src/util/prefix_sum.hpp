#pragma once
// Exclusive prefix sums (scans), the workhorse of the conflict build's
// COO -> CSR conversion (Algorithm 3, Line 4).

#include <cstddef>
#include <vector>

#ifdef PICASSO_HAVE_OPENMP
#include <omp.h>
#endif

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

/// Two-pass blocked parallel exclusive scan. Falls back to the sequential
/// version without OpenMP or for small inputs where thread startup dominates.
/// Returns the total of the original values.
template <typename T>
T parallel_exclusive_scan_inplace(std::vector<T>& v) {
#ifdef PICASSO_HAVE_OPENMP
  const std::size_t n = v.size();
  const int threads = omp_get_max_threads();
  if (threads <= 1 || n < (1u << 16)) return exclusive_scan_inplace(v);

  const std::size_t block = (n + static_cast<std::size_t>(threads) - 1) /
                            static_cast<std::size_t>(threads);
  // block_sums has one extra slot so its own exclusive scan yields the total.
  std::vector<T> block_sums(static_cast<std::size_t>(threads) + 1, T{0});

#pragma omp parallel num_threads(threads)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t lo = t * block;
    const std::size_t hi = lo + block < n ? lo + block : n;

    // Pass 1: per-block sums.
    T sum{0};
    for (std::size_t i = lo; i < hi; ++i) sum += v[i];
    block_sums[t] = sum;
#pragma omp barrier
#pragma omp single
    { exclusive_scan_inplace(block_sums); }  // block_sums.back() = total

    // Pass 2: scan each block, offset by the preceding blocks' sum.
    T running = block_sums[t];
    for (std::size_t i = lo; i < hi; ++i) {
      T next = running + v[i];
      v[i] = running;
      running = next;
    }
  }
  return block_sums.back();
#else
  return exclusive_scan_inplace(v);
#endif
}

}  // namespace picasso::util
