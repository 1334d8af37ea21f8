// Pinned simulated outputs. A change to the simulator that moves any of
// these numbers makes the benchmark's runs fail instead of win. Change them
// only in a change that means to move simulated results: a failing run
// prints the digest it computed (see README.md, "Pins").
#pragma once

#include <cstdint>

namespace simbench {

/// fnv1a of every DeviceResult field of one device_gemm run.
inline constexpr std::uint64_t kDeviceGemmDigest = 0xd478dacfc9f166a2ull;

/// serve_stream traffic: the cold stream (seed 2 covers all six palette
/// buckets, so the warm stream runs no simulation) and the warm stream, and
/// the fnv1a digests of the write_metrics_json bytes of each phase.
inline constexpr int kServeTuneBudget = 1;
inline constexpr int kServeColdRequests = 120;
inline constexpr std::uint64_t kServeColdSeed = 2;
inline constexpr std::uint64_t kServeColdDigest = 0xe3ff99598661dbd4ull;
inline constexpr int kServeWarmRequests = 40;
inline constexpr std::uint64_t kServeWarmSeed = 3;
inline constexpr std::uint64_t kServeWarmDigest = 0xbc394946163d2218ull;

}  // namespace simbench
