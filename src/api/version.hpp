#pragma once
// Versioned public API surface.
//
// PICASSO_API_VERSION_* is the single source of truth for the library
// version: the CMake project version (and therefore the installed
// picassoConfigVersion.cmake) is parsed out of this header at configure
// time, so bumping the macros here bumps everything consumers see.
//
// Compatibility policy: the picasso::api surface (Problem, SessionBuilder,
// Session, ApiError) is stable within a major version. A deprecated
// function is kept until the next major version and then removed; 2.0
// removed the deprecated free-function colorers and the chunk-pair
// streaming strategy. 3.0 removed the probabilistic prefilter tier (its
// strategy, its two PicassoParams fields, its report field, counters and
// memory subsystem); Fused is the one exact edge-free engine. 4.0 removed
// the Pauli backend selector (its enum, its params field, the builder, plan
// and wire-params members) and PauliSet's resident 3-bit words: Pauli
// solves always run the packed plane kernels. 5.0 removed the simulated
// multi-device sharding (its strategy, SessionBuilder::devices(), the plan
// and report members, its counter and RuntimeConfig's chunk_size and
// deterministic knobs). 6.0 removed the simulated single device
// (SessionBuilder::device(), PicassoParams::device, the device CSR build and
// the csr_built_on_device stats), Jones-Plassmann's RuntimeConfig parameter,
// the thread-local runtime arenas with their memory subsystem, and the
// parallel_for / parallel_reduce / chunk_rng primitives. 7.0 removed the
// write-only .pset.colors color sidecar: its writer and reader in
// pauli/pauli_stream.hpp and PackedColorArray's binary save / load format.
// 8.0 replaced the 3-bit byte format of .pset files, the dataset cache and
// SolveRequest payloads with trimmed x/z plane records (new .pset magic,
// wire protocol 3 only) and removed what only the 3-bit format needed:
// PauliSet::write_words3, ChunkedPauliReader::has_packed_tail, the reading
// of packed-tail-less and PSETSUM1 spills; ChunkedPauliReader::refresh()
// now returns the unchanged string count, which
// PackedPauliChunkCache::sync() (replacing drop_from) takes. 9.0 removed
// the coloring-scheme field of PicassoParams (every engine colors by
// Algorithm 2) and moved its conflict-kernel field to a trailing argument
// of the reference engines solve_oracle / solve_pauli, dropping
// SessionBuilder::kernel().

#define PICASSO_API_VERSION_MAJOR 9
#define PICASSO_API_VERSION_MINOR 0
#define PICASSO_API_VERSION_PATCH 0

// "MMmmpp" as a single comparable integer, e.g. 30000 for 3.0.0.
#define PICASSO_API_VERSION_CODE                               \
  (PICASSO_API_VERSION_MAJOR * 10000 + PICASSO_API_VERSION_MINOR * 100 + \
   PICASSO_API_VERSION_PATCH)

#define PICASSO_API_STR_IMPL(x) #x
#define PICASSO_API_STR(x) PICASSO_API_STR_IMPL(x)
#define PICASSO_API_VERSION                    \
  PICASSO_API_STR(PICASSO_API_VERSION_MAJOR)   \
  "." PICASSO_API_STR(PICASSO_API_VERSION_MINOR) "." PICASSO_API_STR( \
      PICASSO_API_VERSION_PATCH)

namespace picasso::api {

inline constexpr int kVersionMajor = PICASSO_API_VERSION_MAJOR;
inline constexpr int kVersionMinor = PICASSO_API_VERSION_MINOR;
inline constexpr int kVersionPatch = PICASSO_API_VERSION_PATCH;

constexpr const char* version_string() noexcept { return PICASSO_API_VERSION; }

}  // namespace picasso::api
