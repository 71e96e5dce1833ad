// Reproducibility test of the benchmark's load generator: the same seed
// must give an identical arrival schedule and identical input tensors, and
// a different seed must give different ones. Exits nonzero on failure;
// run.py runs it after every build, and `ctest` runs it from the build
// directory.
#include <cstdio>

#include "loadgen.hpp"

namespace {

int failures = 0;

void check(bool condition, const char* what, const char* workload) {
  if (!condition) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", workload, what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  for (Workload w : kWorkloads) {
    const char* name = workload_name(w);
    const auto pool_a = input_pool(w, 7);
    const auto pool_b = input_pool(w, 7);
    const auto pool_c = input_pool(w, 8);
    check(pool_a.shape() == pool_b.shape() &&
              fingerprint(pool_a) == fingerprint(pool_b),
          "same seed, different input tensors", name);
    check(fingerprint(pool_a) != fingerprint(pool_c),
          "different seeds, same input tensors", name);

    if (w == Workload::kCifarOffline) {
      check(closed_loop_inputs(7, 4096) == closed_loop_inputs(7, 4096),
            "same seed, different closed-loop image sequence", name);
      check(closed_loop_inputs(7, 4096) != closed_loop_inputs(8, 4096),
            "different seeds, same closed-loop image sequence", name);
      continue;
    }
    const auto sched_a = arrival_schedule(w, 7, 5.0);
    const auto sched_b = arrival_schedule(w, 7, 5.0);
    const auto sched_c = arrival_schedule(w, 8, 5.0);
    check(!sched_a.empty(), "empty schedule", name);
    check(sched_a == sched_b, "same seed, different arrival schedule", name);
    check(fingerprint(sched_a) == fingerprint(sched_b),
          "same seed, different schedule fingerprint", name);
    check(sched_a != sched_c, "different seeds, same arrival schedule", name);
    check(arrival_schedule(w, 7, 5.0, kStreamWarmup) != sched_a,
          "warm-up schedule repeats the measured one", name);
    check(std::is_sorted(sched_a.begin(), sched_a.end(),
                         [](const Arrival& x, const Arrival& y) {
                           return x.due_us < y.due_us;
                         }),
          "schedule not sorted by due time", name);
    for (const Arrival& a : sched_a) {
      if (a.input >= pool_size(w) || a.due_us < 0 || a.due_us >= 5000000) {
        check(false, "arrival outside the pool or the window", name);
        break;
      }
    }
  }
  if (failures == 0) std::printf("loadgen_test: PASS\n");
  return failures == 0 ? 0 : 1;
}
