// Seeded load generation for the repository benchmark: the three named
// workloads, their input pools and their arrival schedules.
//
// Everything a run sends is a pure function of the workload and --seed:
// the same seed gives the same input tensors and the same arrival schedule
// (loadgen_test.cpp checks this), so two runs differ only in how the host
// executes them. The deployment images are fixed (kModelSeed) so set-up
// work and plan shapes are identical across seeds; the seed draws what the
// server is asked to do.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Workload { kCifarOffline, kCifarInteractive, kSharedPuMixed };

inline constexpr Workload kWorkloads[] = {Workload::kCifarOffline,
                                          Workload::kCifarInteractive,
                                          Workload::kSharedPuMixed};

[[nodiscard]] constexpr const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kCifarOffline: return "cifar_offline";
    case Workload::kCifarInteractive: return "cifar_interactive";
    case Workload::kSharedPuMixed: return "shared_pu_mixed";
  }
  return "?";
}

[[nodiscard]] inline std::optional<Workload> parse_workload(
    std::string_view name) {
  for (Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

/// Seed of the fixed deployment images (network weights and calibration).
inline constexpr std::uint64_t kModelSeed = 20170618;

// ---- cifar_offline / cifar_interactive ------------------------------------
inline constexpr std::size_t kCifarC = 3, kCifarH = 32, kCifarW = 32;
/// Distinct input images per run; every served logit is checked against
/// the reference executor's output for its image.
inline constexpr std::size_t kCifarPool = 24;
/// cifar_offline: requests the closed-loop client keeps outstanding —
/// four workers' worth of max_batch-8 batches.
inline constexpr std::size_t kOfflineWindow = 32;
/// cifar_interactive: Poisson arrival rate. At 10-12 ms of host time per
/// batch-1 inference this keeps four workers about a third busy, and most
/// batches hold one sample.
inline constexpr double kInteractiveRps = 120.0;
inline constexpr std::int64_t kInteractiveDeadlineUs = 250000;

// ---- shared_pu_mixed (bench/ablation_shared_pu phase 4 knobs) -------------
inline constexpr std::size_t kMlpC = 3, kMlpH = 16, kMlpW = 16;
inline constexpr std::size_t kMlpPool = 32;
/// Tenant b's Poisson kBatch rate: at 400 us/sample it keeps the PU half
/// busy on its own; with tenant a's probes and the model switches they
/// cause, the PU runs about two-thirds busy.
inline constexpr double kFloodRps = 1250.0;
/// Tenant a: bursts of kProbeBurst interactive probes, kBurstRps bursts
/// per second, each burst start jittered inside the first fifth of its
/// period so bursts never merge (the declared envelope's burst holds).
inline constexpr double kBurstRps = 40.0;
inline constexpr std::size_t kProbeBurst = 4;
/// Latency budget tenant a declares in its envelope, which the capacity
/// analyzer must prove (bench/envelopes/shared_pu_preempt.envelope).
inline constexpr std::int64_t kProbeSloUs = 20000;
/// Deadline each probe carries. Looser than the SLO so a host scheduling
/// stall shows as latency, not as a failed request.
inline constexpr std::int64_t kProbeDeadlineUs = 100000;

/// One scheduled request: when it is due (microseconds after the start of
/// the measured window), which tenant sends it, and which pool image.
struct Arrival {
  std::int64_t due_us = 0;
  std::uint32_t tenant = 0;
  std::uint32_t input = 0;

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Poisson stream of single requests at `rate_rps` over `seconds`.
[[nodiscard]] inline std::vector<Arrival> poisson_arrivals(
    mfdfp::util::Rng& rng, double rate_rps, double seconds,
    std::uint32_t tenant, std::size_t pool) {
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate_rps;
    if (t >= seconds) break;
    out.push_back({static_cast<std::int64_t>(t * 1e6), tenant,
                   static_cast<std::uint32_t>(rng.uniform_u64(pool))});
  }
  return out;
}

/// Bursts of `burst` requests, one burst per 1/burst_rps period.
[[nodiscard]] inline std::vector<Arrival> periodic_bursts(
    mfdfp::util::Rng& rng, double burst_rps, std::size_t burst,
    double seconds, std::uint32_t tenant, std::size_t pool) {
  std::vector<Arrival> out;
  const double period = 1.0 / burst_rps;
  for (double start = 0.0; start < seconds; start += period) {
    const double t = start + rng.uniform(0.0, 0.2 * period);
    if (t >= seconds) break;
    for (std::size_t i = 0; i < burst; ++i) {
      out.push_back({static_cast<std::int64_t>(t * 1e6), tenant,
                     static_cast<std::uint32_t>(rng.uniform_u64(pool))});
    }
  }
  return out;
}

/// Independent, seed-derived random streams, one per purpose.
[[nodiscard]] inline mfdfp::util::Rng stream(std::uint64_t seed,
                                             std::uint64_t purpose) {
  return mfdfp::util::Rng{seed * 0x9e3779b97f4a7c15ULL + purpose};
}

inline constexpr std::uint64_t kStreamInputs = 1;
inline constexpr std::uint64_t kStreamSchedule = 2;
inline constexpr std::uint64_t kStreamWarmup = 3;

/// The workload's input pool: {n, C, H, W} uniform in [-1, 1).
[[nodiscard]] inline mfdfp::tensor::Tensor input_pool(Workload w,
                                                      std::uint64_t seed) {
  mfdfp::util::Rng rng = stream(seed, kStreamInputs);
  const bool cifar = w != Workload::kSharedPuMixed;
  mfdfp::tensor::Tensor pool{
      cifar ? mfdfp::tensor::Shape{kCifarPool, kCifarC, kCifarH, kCifarW}
            : mfdfp::tensor::Shape{kMlpPool, kMlpC, kMlpH, kMlpW}};
  pool.fill_uniform(rng, -1.0f, 1.0f);
  return pool;
}

[[nodiscard]] inline std::size_t pool_size(Workload w) noexcept {
  return w == Workload::kSharedPuMixed ? kMlpPool : kCifarPool;
}

/// Open-loop arrival schedule over `seconds`, sorted by due time (stable,
/// so a burst keeps its order). `purpose` separates the measured window's
/// schedule from the warm-up's. cifar_offline is closed loop and has no
/// schedule: its client draws only image indices, from
/// closed_loop_inputs().
[[nodiscard]] inline std::vector<Arrival> arrival_schedule(
    Workload w, std::uint64_t seed, double seconds,
    std::uint64_t purpose = kStreamSchedule) {
  mfdfp::util::Rng rng = stream(seed, purpose);
  std::vector<Arrival> out;
  if (w == Workload::kCifarInteractive) {
    out = poisson_arrivals(rng, kInteractiveRps, seconds, 0, kCifarPool);
  } else if (w == Workload::kSharedPuMixed) {
    // Tenant 0 = "a" (probes), tenant 1 = "b" (flood).
    out = periodic_bursts(rng, kBurstRps, kProbeBurst, seconds, 0, kMlpPool);
    const std::vector<Arrival> flood =
        poisson_arrivals(rng, kFloodRps, seconds, 1, kMlpPool);
    out.insert(out.end(), flood.begin(), flood.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const Arrival& x, const Arrival& y) {
                       return x.due_us < y.due_us;
                     });
  }
  return out;
}

/// The closed-loop client's image sequence: the i-th request it sends uses
/// the i-th next() image. Unbounded, since how many requests a closed loop
/// sends depends on how fast the server answers.
class ClosedLoopInputs {
 public:
  ClosedLoopInputs(std::uint64_t seed, std::uint64_t purpose)
      : rng_(stream(seed, purpose)) {}
  std::uint32_t next() {
    return static_cast<std::uint32_t>(rng_.uniform_u64(kCifarPool));
  }

 private:
  mfdfp::util::Rng rng_;
};

/// The first `count` images of ClosedLoopInputs (for tests).
[[nodiscard]] inline std::vector<std::uint32_t> closed_loop_inputs(
    std::uint64_t seed, std::size_t count,
    std::uint64_t purpose = kStreamSchedule) {
  ClosedLoopInputs inputs(seed, purpose);
  std::vector<std::uint32_t> out(count);
  for (auto& index : out) index = inputs.next();
  return out;
}

/// FNV-1a over raw bytes, for reproducibility fingerprints.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                         std::uint64_t hash =
                                             0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

[[nodiscard]] inline std::uint64_t fingerprint(
    const std::vector<Arrival>& schedule) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Arrival& a : schedule) {
    hash = fnv1a(&a.due_us, sizeof a.due_us, hash);
    hash = fnv1a(&a.tenant, sizeof a.tenant, hash);
    hash = fnv1a(&a.input, sizeof a.input, hash);
  }
  return hash;
}

[[nodiscard]] inline std::uint64_t fingerprint(
    const mfdfp::tensor::Tensor& t) {
  const auto data = t.data();
  return fnv1a(data.data(), data.size_bytes());
}

}  // namespace perfbench
