// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//
// Workloads (see loadgen.hpp for their constants and seeded generators):
//   cifar_offline      closed loop. The paper's CIFAR-10 net on one
//                      dedicated, unpaced replica (max_batch 8, 4 workers);
//                      one client keeps kOfflineWindow kBatch requests
//                      outstanding. Bound by the host kernels.
//   cifar_interactive  open loop. Same net and deployment image; single
//                      kInteractive requests with a deadline arrive as a
//                      seeded Poisson stream at a rate that leaves batches
//                      at one or two samples. Bound by batch formation,
//                      the batch-1 kernel cost and dispatch.
//   shared_pu_mixed    open loop. Two tenants on one paced, preemptible
//                      SharedDevice with bench/ablation_shared_pu phase 4's
//                      stand-in MLP and knobs: tenant b sends a Poisson
//                      kBatch flood, tenant a bursts of kInteractive probes;
//                      both declare a TrafficEnvelope so deploy() runs the
//                      capacity analyzer. Bound by the modeled clock.
//
// Every number names its clock: "host" is wall or CPU time on this
// machine, "modeled" is cycle-model microseconds and cost-model
// microjoules of the MF-DFP processing unit.
//
// A run builds the deployment images and the reference outputs (untimed),
// deploys repeatedly for about kSetupBudgetS (setup_s is the median deploy),
// warms up, and measures
// one window of --seconds. With --trace 1 it also measures the per-layer
// metrics, runs the window a second time with tracing on (the benchmark's
// own spans plus the obs::trace() recorder) and writes both as one Chrome
// trace JSON into --out-dir.
//
// Correctness gate: every served logit must be bit-identical to
// hw::AcceleratorExecutor::run() on its input; client-side outcome counts
// must equal the server's counters exactly; on shared_pu_mixed tenant a's
// measured interactive p99 must not exceed the bound the capacity analyzer
// proves; the per-step profile must reconcile exactly with the cycle model
// and the profile total. Any failure exits 1 and prints no metrics.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/capacity.hpp"
#include "compile/passes.hpp"
#include "compile/plan_cache.hpp"
#include "compile/plan_executor.hpp"
#include "hw/cost_model.hpp"
#include "hw/cycle_model.hpp"
#include "hw/executor.hpp"
#include "hw/layer_profile.hpp"
#include "hw/qnet.hpp"
#include "loadgen.hpp"
#include "nn/zoo.hpp"
#include "obs/trace.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "util/stopwatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mfdfp;
using perfbench::Arrival;
using perfbench::Workload;
using tensor::Shape;
using tensor::Tensor;

/// Set-up is repeated for at least kSetupMinReps rounds and until
/// kSetupBudgetS of wall time (teardown and gaps included) has passed;
/// setup_s reports the median round. Millisecond deploys need many rounds
/// to give a steady median on a shared host.
constexpr std::size_t kSetupMinReps = 21;
constexpr std::size_t kSetupMaxReps = 1000;
constexpr double kSetupBudgetS = 1.0;
/// Idle gap before each deploy round, so every round starts from a
/// quiescent process as a real deploy does, not from the previous round's
/// exiting threads; without it the median drifts between runs with how
/// many rounds catch CPUs still awake.
constexpr auto kSetupGap = std::chrono::milliseconds(2);
/// Untimed warm-up traffic before the measured window.
constexpr double kWarmupSeconds = 1.0;
/// Paper Table 2: MF-DFP CIFAR-10 inference time on the 65 nm design.
constexpr double kPaperCifarUs = 246.27;
/// Plan steps reported per workload (the CIFAR-10 plan has 7).
constexpr std::size_t kReportedSteps = 7;

// shared_pu_mixed PU knobs (bench/ablation_shared_pu phase 4).
constexpr double kTargetSampleUs = 400.0;
constexpr double kSwitchUs = 1000.0;
constexpr double kPreemptGranularityUs = 4000.0;
constexpr std::size_t kMaxPassSamples = 32;
constexpr std::size_t kTenantMaxBatch = 4;
constexpr std::int64_t kTenantMaxWaitUs = 200;

/// Microseconds on util::Stopwatch::now_us's clock, the one the serving
/// stack stamps requests and trace events with.
std::int64_t now_us() { return util::Stopwatch::now_us(); }

/// Seconds since `start`, at the steady clock's full resolution (for
/// calls too short for whole microseconds).
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

[[noreturn]] void fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  std::exit(1);
}

// ---- arguments -------------------------------------------------------------

struct Args {
  Workload workload = Workload::kCifarOffline;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cifar_offline|cifar_interactive|shared_pu_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = perfbench::parse_workload(value);
        if (!w) usage("unknown workload " + value);
        args.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds >= 1.0 && args.seconds <= 60.0)) {
          usage("--seconds must be within [1, 60]");
        }
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

// ---- small statistics helpers ---------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Process user+sys CPU seconds so far.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Returns freed heap to the system and restarts the kernel's resident-set
/// high-water mark (VmHWM) from the current resident set, so the peak read
/// later covers only what happens after this call.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) fail("cannot reset VmHWM through /proc/self/clear_refs");
}

/// VmHWM of this process in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  fail("no VmHWM in /proc/self/status");
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---- the benchmark's own spans --------------------------------------------

/// Spans the benchmark records around its calls into the serving stack,
/// kept in memory and written as Chrome trace events at the end. Used from
/// the benchmark's single driving thread only.
class SpanLog {
 public:
  enum Track : int { kSetup = 1, kSubmit = 2, kResponse = 3 };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void span(const char* name, std::int64_t start_us, std::int64_t end_us,
            std::uint64_t id, Track track) {
    if (enabled_) spans_.push_back({name, start_us, end_us - start_us, id,
                                    track});
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Comma-separated Chrome trace events (pid 2, one tid per track).
  [[nodiscard]] std::string chrome_events() const {
    std::ostringstream out;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
           "\"args\":{\"name\":\"perfbench\"}}";
    const char* labels[] = {"", "setup", "submit", "response"};
    for (int t = kSetup; t <= kResponse; ++t) {
      out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":"
          << t << ",\"args\":{\"name\":\"" << labels[t] << "\"}}";
    }
    for (const Span& s : spans_) {
      out << ",\n{\"name\":\"" << s.name
          << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" << s.ts
          << ",\"dur\":" << s.dur << ",\"pid\":2,\"tid\":" << s.track
          << ",\"args\":{\"request\":" << s.id << "}}";
    }
    return out.str();
  }

 private:
  struct Span {
    const char* name;
    std::int64_t ts, dur;
    std::uint64_t id;
    int track;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---- deployment images and placements -------------------------------------

hw::QNetDesc make_cifar_qnet() {
  util::Rng rng{perfbench::kModelSeed};
  nn::ZooConfig zoo;
  zoo.in_channels = perfbench::kCifarC;
  zoo.in_h = perfbench::kCifarH;
  zoo.in_w = perfbench::kCifarW;
  zoo.num_classes = 10;
  zoo.width_multiplier = 1.0f;
  nn::Network net = nn::make_cifar10_net(zoo, rng);
  Tensor calibration{Shape{16, perfbench::kCifarC, perfbench::kCifarH,
                           perfbench::kCifarW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "cifar10");
}

hw::QNetDesc make_mlp_qnet(std::uint64_t seed, const std::string& name) {
  util::Rng rng{seed};
  nn::ZooConfig zoo;
  zoo.in_channels = perfbench::kMlpC;
  zoo.in_h = perfbench::kMlpH;
  zoo.in_w = perfbench::kMlpW;
  zoo.num_classes = 5;
  zoo.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(zoo, 12, rng);
  Tensor calibration{
      Shape{8, perfbench::kMlpC, perfbench::kMlpH, perfbench::kMlpW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, name);
}

struct Tenant {
  std::string name;
  hw::QNetDesc qnet;
  serve::Priority priority = serve::Priority::kBatch;
  std::int64_t deadline_us = 0;  ///< relative to the due time; 0 = none
};

/// Everything a workload deploys, built before any timing starts.
struct Deployment {
  Workload workload = Workload::kCifarOffline;
  std::vector<Tenant> tenants;
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  hw::AcceleratorConfig accel;
  bool shared = false;
  serve::SharedDeviceConfig pu;
  std::size_t workers_per_tenant = 0;

  [[nodiscard]] serve::DeployConfig config(std::size_t tenant) const {
    serve::DeployConfig c;
    c.in_c = in_c;
    c.in_h = in_h;
    c.in_w = in_w;
    c.accel = accel;
    c.workers = workers_per_tenant;
    if (!shared) {
      c.max_batch = 8;
      return c;
    }
    c.max_batch = kTenantMaxBatch;
    c.max_wait_us = kTenantMaxWaitUs;
    c.queue_capacity = 8192;
    // Both tenants declare their offered load, so deploy() proves the
    // placement before serving.
    analysis::TrafficEnvelope& env = c.envelope;
    if (tenant == 0) {
      env.arrival_rps =
          perfbench::kBurstRps * static_cast<double>(perfbench::kProbeBurst);
      env.interactive_fraction = 1.0;
      env.interactive_burst = perfbench::kProbeBurst;
      env.interactive_deadline_us =
          static_cast<double>(perfbench::kProbeSloUs);
    } else {
      env.arrival_rps = perfbench::kFloodRps;
      env.interactive_fraction = 0.0;
    }
    return c;
  }
};

Deployment make_deployment(Workload workload, std::size_t cpus) {
  Deployment d;
  d.workload = workload;
  // Engine workers across all engines stay within the machine's CPUs.
  const std::size_t worker_budget = std::min<std::size_t>(4, cpus);
  if (workload != Workload::kSharedPuMixed) {
    d.in_c = perfbench::kCifarC;
    d.in_h = perfbench::kCifarH;
    d.in_w = perfbench::kCifarW;
    d.workers_per_tenant = worker_budget;
    Tenant t;
    t.name = "cifar10";
    t.qnet = make_cifar_qnet();
    if (workload == Workload::kCifarInteractive) {
      t.priority = serve::Priority::kInteractive;
      t.deadline_us = perfbench::kInteractiveDeadlineUs;
    }
    d.tenants.push_back(std::move(t));
    return d;
  }
  d.in_c = perfbench::kMlpC;
  d.in_h = perfbench::kMlpH;
  d.in_w = perfbench::kMlpW;
  d.shared = true;
  d.workers_per_tenant = std::max<std::size_t>(1, worker_budget / 2);
  Tenant a{"a", make_mlp_qnet(perfbench::kModelSeed + 1, "a"),
           serve::Priority::kInteractive, perfbench::kProbeDeadlineUs};
  Tenant b{"b", make_mlp_qnet(perfbench::kModelSeed + 2, "b"),
           serve::Priority::kBatch, 0};
  // Scale the modeled clock so one MLP sample costs kTargetSampleUs.
  const double native_us =
      hw::count_cycles(hw::workload_from_qnet(a.qnet, d.in_c, d.in_h, d.in_w),
                       d.accel)
          .microseconds(d.accel);
  d.accel.clock_hz *= native_us / kTargetSampleUs;
  d.pu.max_pass_samples = kMaxPassSamples;
  d.pu.cobatch = true;
  d.pu.paced = true;
  d.pu.model_switch_us = kSwitchUs;
  d.pu.preempt_granularity_us = kPreemptGranularityUs;
  d.tenants.push_back(std::move(a));
  d.tenants.push_back(std::move(b));
  return d;
}

/// A deployed server. The PU is declared first so it outlives the server's
/// engines.
struct Served {
  std::shared_ptr<serve::SharedDevice> pu;
  std::unique_ptr<serve::ModelServer> server;
};

Served deploy_all(const Deployment& d) {
  Served s;
  if (d.shared) {
    serve::DeviceSpec spec;
    spec.name = "shared-pu";
    s.pu = serve::SharedDevice::create(spec, d.pu);
  }
  s.server = std::make_unique<serve::ModelServer>();
  for (std::size_t t = 0; t < d.tenants.size(); ++t) {
    serve::DeployConfig config = d.config(t);
    if (d.shared) config.placement = {serve::DeviceSpec::on(s.pu)};
    s.server->deploy(d.tenants[t].name, {d.tenants[t].qnet}, config);
  }
  return s;
}

// ---- reference outputs ----------------------------------------------------

/// oracle[tenant][image]: hw::AcceleratorExecutor::run() on that image,
/// computed in parallel before anything is timed.
using Oracle = std::vector<std::vector<Tensor>>;

Oracle compute_oracle(const Deployment& d, const std::vector<Tensor>& images,
                      std::size_t threads) {
  Oracle oracle(d.tenants.size(), std::vector<Tensor>(images.size()));
  for (std::size_t t = 0; t < d.tenants.size(); ++t) {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, t, w] {
        const hw::AcceleratorExecutor reference(d.tenants[t].qnet);
        for (std::size_t i = w; i < images.size(); i += threads) {
          oracle[t][i] = reference.run(images[i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }
  return oracle;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

// ---- traffic ----------------------------------------------------------------

/// What one measured window observed, client side.
struct Window {
  std::size_t attempted = 0;
  std::map<serve::StatusCode, std::size_t> outcomes;
  std::size_t mismatches = 0;  ///< kOk responses whose logits differ
  std::vector<double> latency_us;  ///< every kOk request, from due
  /// kOk kInteractive requests: from due (interactive_p99_ms) and the
  /// server's enqueue-to-completion e2e_us (checked against the proof).
  std::vector<double> interactive_latency_us, interactive_e2e_us;
  std::vector<double> queue_wait_us, service_us, submit_us, lag_us;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t reserved_bytes = 0;  ///< resident sample storage, see reserve

  /// Allocates and touches room for `n` requests, so the sample vectors
  /// are resident before the window starts and need not grow during it.
  void reserve(std::size_t n) {
    for (auto* v : {&latency_us, &interactive_latency_us, &interactive_e2e_us,
                    &queue_wait_us, &service_us, &submit_us, &lag_us}) {
      v->assign(n, 0.0);
      v->clear();
      reserved_bytes += v->capacity() * sizeof(double);
    }
  }

  [[nodiscard]] std::size_t count(serve::StatusCode code) const {
    const auto it = outcomes.find(code);
    return it == outcomes.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t completed() const {
    return count(serve::StatusCode::kOk);
  }
  [[nodiscard]] std::size_t failed() const { return attempted - completed(); }
};

struct Sent {
  std::uint32_t tenant = 0;
  std::uint32_t input = 0;
  std::uint64_t id = 0;
  std::int64_t due_us = 0;  ///< open loop: scheduled; closed loop: submit
  std::int64_t submit_start_us = 0, submit_end_us = 0;
  std::future<serve::Response> future;
};

class Traffic {
 public:
  Traffic(const Deployment& d, serve::ModelServer& server,
          const std::vector<Tensor>& images, const Oracle& oracle,
          SpanLog& spans)
      : d_(d), server_(server), images_(images), oracle_(oracle),
        spans_(spans) {}

  /// Sends one request; `due_us` is when it was due (absolute), or 0 for
  /// a closed-loop request, which is due when it is submitted.
  Sent send(std::uint32_t tenant, std::uint32_t input, std::int64_t due_us) {
    const Tenant& t = d_.tenants[tenant];
    Tensor sample = images_[input];
    Sent sent;
    sent.tenant = tenant;
    sent.input = input;
    sent.id = ++next_id_;
    sent.submit_start_us = now_us();
    sent.due_us = due_us != 0 ? due_us : sent.submit_start_us;
    serve::SubmitOptions options;
    options.priority = t.priority;
    options.deadline_us = t.deadline_us > 0 ? sent.due_us + t.deadline_us : 0;
    sent.future = server_.submit(t.name, std::move(sample), options);
    sent.submit_end_us = now_us();
    spans_.span("submit", sent.submit_start_us, sent.submit_end_us, sent.id,
                SpanLog::kSubmit);
    return sent;
  }

  /// Waits for one request and folds its outcome into `w`. Latency runs
  /// from the due time to completion; completion is taken as the end of
  /// the submit call plus the server's enqueue-to-completion e2e_us, an
  /// upper bound that never misses the server's own admission time.
  void collect(Sent& sent, Window& w) {
    const serve::Response r = sent.future.get();
    ++w.attempted;
    ++w.outcomes[r.status];
    w.submit_us.push_back(
        static_cast<double>(sent.submit_end_us - sent.submit_start_us));
    if (!serve::ok(r.status)) return;
    if (!bit_identical(r.logits, oracle_[sent.tenant][sent.input])) {
      ++w.mismatches;
    }
    const std::int64_t done_us = sent.submit_end_us + r.e2e_us;
    const auto latency = static_cast<double>(done_us - sent.due_us);
    w.latency_us.push_back(latency);
    if (r.priority == serve::Priority::kInteractive) {
      w.interactive_latency_us.push_back(latency);
      w.interactive_e2e_us.push_back(static_cast<double>(r.e2e_us));
    }
    w.queue_wait_us.push_back(static_cast<double>(r.queue_wait_us));
    w.service_us.push_back(static_cast<double>(r.service_us));
    spans_.span("response", sent.due_us, done_us, sent.id,
                SpanLog::kResponse);
  }

  /// Closed loop: keep kOfflineWindow requests outstanding for `seconds`,
  /// then drain. Outcomes are folded into `w`.
  void closed_loop(std::uint64_t seed, double seconds, std::uint64_t purpose,
                   Window& w) {
    perfbench::ClosedLoopInputs inputs(seed, purpose);
    std::deque<Sent> inflight;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_us();
    const auto end = t0 + static_cast<std::int64_t>(seconds * 1e6);
    while (now_us() < end) {
      while (inflight.size() < perfbench::kOfflineWindow) {
        inflight.push_back(send(0, inputs.next(), 0));
      }
      collect(inflight.front(), w);
      inflight.pop_front();
    }
    for (Sent& s : inflight) collect(s, w);
    w.wall_s = static_cast<double>(now_us() - t0) * 1e-6;
    w.cpu_s = cpu_seconds() - cpu0;
  }

  /// Open loop: send every arrival at its due time (late arrivals go out
  /// at once and count their lateness), folding in responses as they
  /// arrive; then wait for the rest. Outcomes are folded into `w`.
  void open_loop(const std::vector<Arrival>& schedule, Window& w) {
    std::deque<Sent> inflight;
    const auto ready = [](const Sent& s) {
      return s.future.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    };
    const double cpu0 = cpu_seconds();
    // Window start, 1 ms ahead, on util::Stopwatch's steady clock.
    const auto start = std::chrono::time_point_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1));
    const std::int64_t t0 = start.time_since_epoch().count();
    for (const Arrival& a : schedule) {
      std::this_thread::sleep_until(start +
                                    std::chrono::microseconds(a.due_us));
      const std::int64_t due = t0 + a.due_us;
      inflight.push_back(send(a.tenant, a.input, due));
      w.lag_us.push_back(
          static_cast<double>(inflight.back().submit_start_us - due));
      while (!inflight.empty() && ready(inflight.front())) {
        collect(inflight.front(), w);
        inflight.pop_front();
      }
    }
    for (Sent& s : inflight) collect(s, w);
    w.wall_s = static_cast<double>(now_us() - t0) * 1e-6;
    w.cpu_s = cpu_seconds() - cpu0;
  }

 private:
  const Deployment& d_;
  serve::ModelServer& server_;
  const std::vector<Tensor>& images_;
  const Oracle& oracle_;
  SpanLog& spans_;
  std::uint64_t next_id_ = 0;
};

// ---- server-side counters -------------------------------------------------

struct ServerCounters {
  std::uint64_t completed = 0, timed_out = 0, rejected = 0, shedded = 0;
  std::uint64_t batches = 0;
  double batch_samples = 0.0;  ///< Σ mean_batch_size x batches
  double sim_busy_us = 0.0;

  [[nodiscard]] double mean_batch() const {
    return batches > 0 ? batch_samples / static_cast<double>(batches) : 0.0;
  }
};

ServerCounters server_counters(const Deployment& d,
                               const serve::ModelServer& server) {
  ServerCounters c;
  for (const Tenant& t : d.tenants) {
    const serve::StatsSnapshot s = server.stats(t.name);
    c.completed += s.completed;
    c.timed_out += s.timed_out;
    c.rejected += s.rejected;
    c.shedded += s.shedded;
    c.batches += s.batches;
    c.batch_samples += s.mean_batch_size * static_cast<double>(s.batches);
    c.sim_busy_us += s.sim_accel_busy_us;
  }
  return c;
}

void clear_server_stats(const Deployment& d, serve::ModelServer& server) {
  for (const Tenant& t : d.tenants) server.engine(t.name)->stats().clear();
}

/// Exact accounting: every client-observed outcome matches the server's
/// counters. Counters are updated just before (completions) or just after
/// (expiries) a promise resolves, so poll briefly for the last ones.
ServerCounters check_accounting(const Deployment& d,
                                const serve::ModelServer& server,
                                const Window& w, const char* phase) {
  using serve::StatusCode;
  const std::size_t ok = w.count(StatusCode::kOk);
  const std::size_t timed_out = w.count(StatusCode::kDeadlineExceeded);
  const std::size_t shed = w.count(StatusCode::kShedded);
  const std::size_t rejected = w.attempted - ok - timed_out - shed;
  ServerCounters c;
  for (int attempt = 0; attempt < 200; ++attempt) {
    c = server_counters(d, server);
    if (c.completed == ok && c.timed_out == timed_out && c.shedded == shed &&
        c.rejected == rejected) {
      return c;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::ostringstream why;
  why << phase << ": accounting mismatch, client ok/timed_out/shed/rejected "
      << ok << "/" << timed_out << "/" << shed << "/" << rejected
      << " vs server " << c.completed << "/" << c.timed_out << "/"
      << c.shedded << "/" << c.rejected << " of " << w.attempted
      << " attempted";
  fail(why.str());
}

void check_outputs(const Window& w, const char* phase) {
  if (w.mismatches != 0) {
    fail(std::string(phase) + ": " + std::to_string(w.mismatches) +
         " served logits differ from AcceleratorExecutor::run()");
  }
  if (w.completed() == 0) fail(std::string(phase) + ": nothing completed");
}

/// One measured window with the server- and device-side views around it.
struct Measured {
  Window w;
  ServerCounters counters;
  std::vector<hw::LayerProfile> profiles_before, profiles_after;
  serve::SharedDeviceSnapshot pu_before, pu_after;
  double modeled_us_per_sample = 0.0;
  double peak_rss_mb = 0.0;  ///< see measure()

  /// Samples the shared PU served during the window (0 when dedicated).
  [[nodiscard]] std::uint64_t pu_samples() const {
    std::uint64_t samples = 0;
    for (const auto& row : pu_after.tenants) samples += row.samples;
    for (const auto& row : pu_before.tenants) samples -= row.samples;
    return samples;
  }
};

// ---- per-step profile -----------------------------------------------------

struct StepCost {
  std::string label;
  std::uint64_t host_ns = 0;  ///< measured, summed over source layers
  std::uint64_t cycles_per_sample = 0;
};

/// The desc layer index a profile row belongs to ("L<index>:kind").
std::size_t row_layer(const hw::LayerProfileRow& row) {
  return static_cast<std::size_t>(std::stoul(row.name.substr(1)));
}

/// Folds the profile rows recorded between `before` and `after` onto the
/// plan's steps through each step's source_layers. Every row must land in
/// exactly one step.
std::vector<StepCost> step_costs(const compile::CompiledPlan& plan,
                                 const hw::LayerProfile& before,
                                 const hw::LayerProfile& after) {
  if (before.rows.size() != after.rows.size()) {
    fail("layer profile changed shape during the window");
  }
  std::vector<int> claimed(after.rows.size(), 0);
  std::vector<StepCost> steps;
  for (const compile::PlanStep& step : plan.steps) {
    StepCost cost;
    cost.label = step.label;
    for (std::size_t layer : step.source_layers) {
      for (std::size_t r = 0; r < after.rows.size(); ++r) {
        if (row_layer(after.rows[r]) != layer) continue;
        ++claimed[r];
        cost.host_ns +=
            after.rows[r].host_ns_total - before.rows[r].host_ns_total;
        cost.cycles_per_sample += after.rows[r].cycles_per_sample;
      }
    }
    steps.push_back(std::move(cost));
  }
  for (std::size_t r = 0; r < claimed.size(); ++r) {
    if (claimed[r] != 1) {
      fail("profile row " + after.rows[r].name + " maps to " +
           std::to_string(claimed[r]) + " plan steps");
    }
  }
  return steps;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;   ///< "host", "modeled", "-" (counts, ratios of both)
  std::string note;    ///< sample count or other context
};

/// Shortest round-trip decimal form: every digit as measured.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, result.ptr);
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title.c_str());
  std::printf("  %-28s %16s  %-10s %-8s %s\n", "metric", "value", "unit",
              "clock", "note");
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6g  %-10s %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.clock.c_str(), m.note.c_str());
  }
}

void print_result(const std::vector<Metric>& ms, std::size_t attempted,
                  std::size_t failed) {
  std::ostringstream out;
  out << "{\"correct\": true, \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
        << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

std::string samples_note(std::size_t n, double q) {
  const auto beyond = static_cast<std::size_t>(
      static_cast<double>(n) * (1.0 - q));
  std::string note = std::to_string(n) + " samples";
  if (q < 1.0 && q > 0.5) {
    note += ", " + std::to_string(beyond) + " beyond";
    if (beyond < 10) note += " (fewer than 10: run longer)";
  }
  return note;
}

/// Times `fn` over at least `reps` calls and `min_seconds`; returns the
/// median call time in microseconds.
double median_call_us(const std::function<void()>& fn, std::size_t reps,
                      double min_seconds) {
  std::vector<double> times;
  const auto start = std::chrono::steady_clock::now();
  while (times.size() < reps || seconds_since(start) < min_seconds) {
    const auto t = std::chrono::steady_clock::now();
    fn();
    times.push_back(seconds_since(t) * 1e6);
  }
  return median(times);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const char* workload = perfbench::workload_name(args.workload);
  const std::size_t cpus = online_cpus();

  // ---- context: where and what this run measures ----
  const hw::AcceleratorConfig paper_config = hw::mfdfp_config(1);
  const double paper_model_us =
      hw::count_cycles(hw::paper_cifar10_workload(), paper_config)
          .microseconds(paper_config);
  const double paper_err_pct =
      (paper_model_us - kPaperCifarUs) / kPaperCifarUs * 100.0;
  std::printf("perfbench %s: seed %llu, %.0f s measured window, tracing %s\n",
              workload, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? "on (per-layer run)" : "off");
  std::printf("context: git %s, nproc %zu, cpu avx2=%s avx512f=%s, "
              "build %s\n",
              args.git_sha.c_str(), cpus,
              __builtin_cpu_supports("avx2") ? "yes" : "no",
              __builtin_cpu_supports("avx512f") ? "yes" : "no",
              PERFBENCH_BUILD_TYPE);
  std::printf("cycle model: paper CIFAR-10 net %.2f us modeled vs %.2f us "
              "in paper Table 2 (error %+.2f%%); otherwise unvalidated "
              "against silicon\n",
              paper_model_us, kPaperCifarUs, paper_err_pct);

  // ---- untimed: images, reference outputs, inputs ----
  const Deployment d = make_deployment(args.workload, cpus);
  const Tensor pool = perfbench::input_pool(args.workload, args.seed);
  std::vector<Tensor> images;
  for (std::size_t i = 0; i < pool.shape().n(); ++i) {
    images.push_back(tensor::slice_outer(pool, i, i + 1));
  }
  const std::int64_t oracle_start = now_us();
  const Oracle oracle = compute_oracle(d, images, std::min<std::size_t>(
                                                      4, cpus));
  std::fprintf(stderr, "reference outputs: %.2f s\n",
               static_cast<double>(now_us() - oracle_start) * 1e-6);
  const bool open_loop = args.workload != Workload::kCifarOffline;
  const std::vector<Arrival> schedule =
      open_loop ? perfbench::arrival_schedule(args.workload, args.seed,
                                              args.seconds)
                : std::vector<Arrival>{};
  const std::vector<Arrival> warmup_schedule =
      open_loop ? perfbench::arrival_schedule(args.workload, args.seed,
                                              kWarmupSeconds,
                                              perfbench::kStreamWarmup)
                : std::vector<Arrival>{};
  std::printf("threads: %zu engine workers (%zu per tenant x %zu), 1 load "
              "generator, %d PU dispatch; %zu distinct inputs%s\n",
              d.workers_per_tenant * d.tenants.size(), d.workers_per_tenant,
              d.tenants.size(), d.shared ? 1 : 0, images.size(),
              open_loop ? (", " + std::to_string(schedule.size()) +
                           " scheduled requests (fingerprint " +
                           std::to_string(perfbench::fingerprint(schedule)) +
                           ")")
                              .c_str()
                        : ", closed loop");

  SpanLog spans;
  spans.set_enabled(args.trace);

  // ---- timed set-up: deploy() until the server accepts traffic ----
  std::vector<double> setup_s;
  Served served;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_s.size() < kSetupMinReps ||
         (setup_s.size() < kSetupMaxReps &&
          seconds_since(setup_start) < kSetupBudgetS)) {
    if (served.server) served.server->shutdown();
    served = {};
    std::this_thread::sleep_for(kSetupGap);
    const std::int64_t t = now_us();
    const auto start = std::chrono::steady_clock::now();
    try {
      served = deploy_all(d);
    } catch (const serve::DeployError& e) {
      fail(std::string("deploy() refused the placement: ") + e.what());
    }
    setup_s.push_back(seconds_since(start));
    spans.span("deploy", t, now_us(), 0, SpanLog::kSetup);
  }
  serve::ModelServer& server = *served.server;
  const compile::PlanCacheStats cache = server.plan_cache()->stats();

  // ---- per-layer measurements outside the serving windows (traced run) ----
  // The plan each tenant serves: compile_qnet is deterministic, so this is
  // content-identical to the plan-cache entry the engines execute.
  std::vector<double> compile_ms;
  std::vector<std::shared_ptr<const compile::CompiledPlan>> plans;
  double exec_b1_us = 0.0, exec_b8_us = 0.0;
  if (args.trace) {
    for (const Tenant& t : d.tenants) {
      std::vector<double> reps;
      for (std::size_t rep = 0; rep < 5; ++rep) {
        const std::int64_t s = now_us();
        const auto start = std::chrono::steady_clock::now();
        auto plan = compile::compile_qnet(t.qnet, d.in_c, d.in_h, d.in_w);
        reps.push_back(seconds_since(start) * 1e3);
        spans.span("compile_qnet", s, now_us(), 0, SpanLog::kSetup);
        if (rep == 0) plans.push_back(std::move(plan));
      }
      compile_ms.push_back(median(reps));
    }
    hw::ExecScratch scratch;
    const Tensor b1 = images.front();
    const Tensor b8 = tensor::slice_outer(pool, 0, 8);
    for (const Tensor* x : {&b1, &b8}) {
      const Tensor logits = compile::run_plan_batch(*plans.front(), *x,
                                                    scratch);
      if (!bit_identical(tensor::slice_outer(logits, 0, 1),
                         oracle.front().front())) {
        fail("run_plan_batch output differs from AcceleratorExecutor::run()");
      }
    }
    const auto run = [&](const Tensor& x) {
      const std::int64_t s = now_us();
      (void)compile::run_plan_batch(*plans.front(), x, scratch);
      spans.span("run_plan_batch", s, now_us(), 0, SpanLog::kSetup);
    };
    exec_b1_us = median_call_us([&] { run(b1); }, 5, 0.3);
    exec_b8_us = median_call_us([&] { run(b8); }, 3, 0.3) / 8.0;
  }

  // Tenant a's interactive latency bound, proven at deploy() and checked
  // against every measured window.
  const analysis::CapacityReport capacity = server.capacity_report();
  double bound_us = 0.0;
  for (const analysis::Finding& f : capacity.findings) {
    if (f.proof == analysis::ProofKind::kInteractiveLatency &&
        f.model == d.tenants.front().name) {
      bound_us = std::max(bound_us, f.worst_case_us);
    }
  }
  if (d.shared && bound_us <= 0.0) {
    fail("capacity analyzer proved no interactive bound for tenant a");
  }

  Traffic traffic(d, server, images, oracle, spans);
  const auto run_window = [&](double seconds, std::uint64_t purpose,
                              const std::vector<Arrival>& arrivals,
                              Window& w) {
    if (open_loop) {
      traffic.open_loop(arrivals, w);
    } else {
      traffic.closed_loop(args.seed, seconds, purpose, w);
    }
  };
  // Requests a measured window sends: the schedule, or for the closed
  // loop twice the warm-up's rate over the window.
  std::size_t window_requests = schedule.size();

  // ---- warm-up (untimed, unrecorded) ----
  {
    const bool was = spans.enabled();
    spans.set_enabled(false);
    Window warm;
    run_window(kWarmupSeconds, perfbench::kStreamWarmup, warmup_schedule,
               warm);
    check_outputs(warm, "warm-up");
    spans.set_enabled(was);
    if (!open_loop) {
      window_requests = static_cast<std::size_t>(
          2.0 * static_cast<double>(warm.attempted) / warm.wall_s *
          args.seconds);
    }
  }

  // ---- measured windows ----
  const auto snapshot_profiles = [&] {
    std::vector<hw::LayerProfile> p;
    for (const Tenant& t : d.tenants) {
      p.push_back(server.engine(t.name)->layer_profiles().front());
    }
    return p;
  };
  // The analyzer bounds the time from a probe's enqueue to its completion,
  // so the check uses the server's e2e_us: how late the generator sent a
  // probe is the benchmark's, not the server's.
  const auto interactive_e2e_p99 = [](const Window& w) {
    return percentile(w.interactive_e2e_us, 0.99);
  };
  const auto check_bound = [&](const Window& w, const char* phase) {
    if (!d.shared) return;
    const double p99 = interactive_e2e_p99(w);
    std::printf("capacity proof, %s: tenant a interactive p99 %.0f us "
                "server-side e2e (%.0f us from due) vs proven bound %.0f us\n",
                phase, p99, percentile(w.interactive_latency_us, 0.99),
                bound_us);
    if (p99 > bound_us) {
      fail(std::string(phase) + ": tenant a interactive p99 " +
           json_number(p99) + " us exceeds the proven bound " +
           json_number(bound_us) + " us");
    }
  };
  const auto measure = [&](const char* phase) {
    Measured m;
    m.profiles_before = snapshot_profiles();
    if (d.shared) m.pu_before = served.pu->snapshot();
    clear_server_stats(d, server);
    // Peak RSS of the window: VmHWM restarted just before it, so set-up
    // and the reference executors are not in it, less the benchmark's
    // sample vectors, allocated and made resident here up front.
    m.w.reserve(window_requests);
    reset_peak_rss();
    run_window(args.seconds, perfbench::kStreamSchedule, schedule, m.w);
    m.peak_rss_mb = peak_rss_mb() -
                    static_cast<double>(m.w.reserved_bytes) / (1024.0 * 1024.0);
    m.profiles_after = snapshot_profiles();
    if (d.shared) m.pu_after = served.pu->snapshot();
    check_outputs(m.w, phase);
    m.counters = check_accounting(d, server, m.w, phase);
    check_bound(m.w, phase);
    // Modeled PU busy time per completed sample: on the shared PU the
    // device's busy time, switches and pass overhead included; on a
    // dedicated replica the batches' modeled latency.
    m.modeled_us_per_sample =
        d.shared ? (m.pu_after.busy_us - m.pu_before.busy_us) /
                       static_cast<double>(
                           std::max<std::uint64_t>(1, m.pu_samples()))
                 : m.counters.sim_busy_us /
                       static_cast<double>(m.w.completed());
    return m;
  };

  const bool spans_on = spans.enabled();
  spans.set_enabled(false);
  const Measured base = measure("measured window");
  spans.set_enabled(spans_on);

  // End-to-end metrics, all from the untraced window. The first group is
  // BENCHMARK.json's end_to_end list. The second is BENCHMARK.json's
  // per-layer list, since its metrics apply to every workload: the
  // latencies do not repeat within its bounds on shared_pu_mixed (the paced
  // PU's wall time follows host scheduling), fail_frac is 0 on every
  // workload and the modeled costs are constant on the dedicated workloads.
  const double power_mw = hw::cost_model(d.accel).total_power_mw();
  const auto n = static_cast<double>(base.w.completed());
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s", "host",
       "median of " + std::to_string(setup_s.size()) + " deploy rounds"},
      {"throughput_sps", n / base.w.wall_s, "samples/s", "host",
       std::to_string(base.w.completed()) + " samples in " +
           json_number(base.w.wall_s) + " s"},
      {"host_cpu_ms_per_sample", base.w.cpu_s * 1e3 / n, "ms", "host",
       "user+sys over the window"},
      {"peak_rss_mb", base.peak_rss_mb, "MB", "host",
       "VmHWM over the window less the benchmark's sample vectors"},
  };
  const std::vector<Metric> e2e_reported = {
      {"latency_p50_ms", percentile(base.w.latency_us, 0.5) * 1e-3, "ms",
       "host", samples_note(base.w.latency_us.size(), 0.5)},
      {"latency_p99_ms", percentile(base.w.latency_us, 0.99) * 1e-3, "ms",
       "host", samples_note(base.w.latency_us.size(), 0.99)},
      {"interactive_p99_ms",
       percentile(base.w.interactive_latency_us, 0.99) * 1e-3, "ms", "host",
       base.w.interactive_latency_us.empty()
           ? "n/a: no kInteractive requests"
           : samples_note(base.w.interactive_latency_us.size(), 0.99)},
      {"fail_frac",
       static_cast<double>(base.w.failed()) /
           static_cast<double>(base.w.attempted),
       "ratio", "-",
       std::to_string(base.w.failed()) + " of " +
           std::to_string(base.w.attempted) + " attempted"},
      {"modeled_us_per_sample", base.modeled_us_per_sample, "us", "modeled",
       d.shared ? "PU busy incl. switches and pass overhead"
                : "dedicated PU: batch modeled latency"},
      {"modeled_uj_per_sample", power_mw * base.modeled_us_per_sample * 1e-3,
       "uJ", "modeled", "cost-model power x modeled busy time"},
  };
  {
    std::vector<Metric> all = e2e;
    all.insert(all.end(), e2e_reported.begin(), e2e_reported.end());
    print_table("end-to-end metrics (" + std::string(workload) +
                    ", untraced window)",
                all);
  }
  if (!args.trace) {
    print_result(e2e, base.w.attempted, base.w.failed());
    return 0;
  }

  // ---- traced window: same schedule, tracing on ----
  obs::trace().clear();
  obs::trace().set_enabled(true);
  const Measured traced = measure("traced window");
  obs::trace().set_enabled(false);
  const obs::TraceRecorder::Stats trace_stats = obs::trace().stats();

  std::vector<double> capacity_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    (void)server.capacity_report();
    capacity_ms.push_back(seconds_since(start) * 1e3);
  }

  // Per-step host vs modeled time of every served plan, with the two
  // integer reconciliations; the first tenant's steps become metrics.
  std::vector<Metric> step_metrics;
  std::uint64_t modeled_cycles0 = 0;
  double modeled_sample_us0 = 0.0;
  for (std::size_t t = 0; t < d.tenants.size(); ++t) {
    const hw::CycleReport cycles = hw::count_cycles(
        hw::workload_from_qnet(d.tenants[t].qnet, d.in_c, d.in_h, d.in_w),
        d.accel);
    const std::vector<StepCost> steps =
        step_costs(*plans[t], traced.profiles_before[t],
                   traced.profiles_after[t]);
    std::uint64_t sum_cycles = 0, sum_ns = 0;
    for (const StepCost& s : steps) {
      sum_cycles += s.cycles_per_sample;
      sum_ns += s.host_ns;
    }
    const std::uint64_t profile_ns = traced.profiles_after[t].host_ns_total -
                                     traced.profiles_before[t].host_ns_total;
    if (sum_cycles != cycles.total_cycles) {
      fail("step modeled cycles " + std::to_string(sum_cycles) +
           " != hw.modeled_cycles " + std::to_string(cycles.total_cycles));
    }
    if (sum_ns != profile_ns) {
      fail("step host ns " + std::to_string(sum_ns) +
           " != profile host_ns_total " + std::to_string(profile_ns));
    }
    const std::uint64_t samples = traced.profiles_after[t].samples -
                                  traced.profiles_before[t].samples;
    if (samples == 0) fail("no samples profiled for " + d.tenants[t].name);
    const auto host_us = [&](const StepCost& s) {
      return static_cast<double>(s.host_ns) * 1e-3 /
             static_cast<double>(samples);
    };
    const auto modeled_us = [&](const StepCost& s) {
      return static_cast<double>(s.cycles_per_sample) / d.accel.clock_hz *
             1e6;
    };
    std::printf("\nplan %s: host vs modeled per step (%llu samples; "
                "reconciled: sum of step cycles == %llu == hw.modeled_cycles, "
                "sum of step host ns == %llu == profile total)\n",
                d.tenants[t].name.c_str(),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(cycles.total_cycles),
                static_cast<unsigned long long>(profile_ns));
    std::printf("  %-4s %-40s %12s %12s %10s %8s %8s\n", "step", "label",
                "host us", "modeled us", "host/mod", "host %", "mod %");
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const double mod = modeled_us(steps[i]);
      std::printf("  %-4zu %-40s %12.2f %12.3f %10.1f %7.1f%% %7.1f%%\n", i,
                  steps[i].label.c_str(), host_us(steps[i]), mod,
                  mod > 0 ? host_us(steps[i]) / mod : 0.0,
                  100.0 * static_cast<double>(steps[i].host_ns) /
                      static_cast<double>(std::max<std::uint64_t>(1, sum_ns)),
                  100.0 * static_cast<double>(steps[i].cycles_per_sample) /
                      static_cast<double>(cycles.total_cycles));
    }
    if (t != 0) continue;
    modeled_cycles0 = cycles.total_cycles;
    modeled_sample_us0 = cycles.microseconds(d.accel);
    // A fixed set of names on every workload: steps the plan lacks read 0.
    for (const bool host : {true, false}) {
      for (std::size_t i = 0; i < kReportedSteps; ++i) {
        const bool have = i < steps.size();
        const std::string index = std::to_string(i);
        step_metrics.push_back(
            {host ? "compile.step" + index + ".host_us"
                  : "hw.step" + index + ".modeled_us",
             !have ? 0.0 : host ? host_us(steps[i]) : modeled_us(steps[i]),
             "us", host ? "host" : "modeled",
             have ? steps[i].label : "no such step"});
      }
    }
  }

  const Window& tw = traced.w;
  const std::string na = d.shared ? "" : "no shared PU on this workload";
  const auto pu_delta = [&](auto field) {
    return d.shared ? static_cast<double>(traced.pu_after.*field -
                                          traced.pu_before.*field)
                    : 0.0;
  };
  const double passes = pu_delta(&serve::SharedDeviceSnapshot::passes);
  const double pu_wall =
      pu_delta(&serve::SharedDeviceSnapshot::wall_seconds);
  double compile_ms_mean = 0.0;
  for (double v : compile_ms) compile_ms_mean += v;
  compile_ms_mean /= static_cast<double>(compile_ms.size());

  std::vector<Metric> layer = e2e_reported;
  const std::vector<Metric> traced_metrics = {
      {"compile.compile_ms", compile_ms_mean, "ms", "host",
       "median of 5 compile_qnet calls, mean over " +
           std::to_string(compile_ms.size()) + " models"},
      {"compile.plan_cache_hits", static_cast<double>(cache.hits), "count",
       "-", "after deploy"},
      {"compile.plan_cache_misses", static_cast<double>(cache.misses),
       "count", "-", "after deploy"},
      {"compile.exec_b1_us", exec_b1_us, "us", "host",
       "run_plan_batch, one thread, per sample"},
      {"compile.exec_b8_us", exec_b8_us, "us", "host",
       "run_plan_batch, one thread, per sample"},
      {"hw.modeled_cycles", static_cast<double>(modeled_cycles0), "count",
       "modeled", "per sample, plan " + d.tenants.front().name},
      {"hw.host_over_modeled", exec_b8_us / modeled_sample_us0, "ratio", "-",
       "exec_b8_us / modeled us per sample"},
      {"hw.paper_cifar_err_pct", std::abs(paper_err_pct), "%", "modeled",
       "|modeled - paper| / paper, paper Table 2 246.27 us"},
      {"serve.submit_p99_us", percentile(tw.submit_us, 0.99), "us", "host",
       samples_note(tw.submit_us.size(), 0.99)},
      {"serve.queue_wait_p50_us", percentile(tw.queue_wait_us, 0.5), "us",
       "host", samples_note(tw.queue_wait_us.size(), 0.5)},
      {"serve.queue_wait_p99_us", percentile(tw.queue_wait_us, 0.99), "us",
       "host", samples_note(tw.queue_wait_us.size(), 0.99)},
      {"serve.service_p50_us", percentile(tw.service_us, 0.5), "us", "host",
       samples_note(tw.service_us.size(), 0.5)},
      {"serve.service_p99_us", percentile(tw.service_us, 0.99), "us", "host",
       samples_note(tw.service_us.size(), 0.99)},
      {"serve.mean_batch", traced.counters.mean_batch(), "samples", "-",
       std::to_string(traced.counters.batches) + " batches"},
      {"serve.shed", static_cast<double>(traced.counters.shedded), "count",
       "-", ""},
      {"serve.timed_out", static_cast<double>(traced.counters.timed_out),
       "count", "-", ""},
      {"serve.rejected", static_cast<double>(traced.counters.rejected),
       "count", "-", ""},
      {"serve.pu.passes", passes, "count", "modeled", na},
      {"serve.pu.chunks", pu_delta(&serve::SharedDeviceSnapshot::chunks),
       "count", "modeled", na},
      {"serve.pu.preemptions",
       pu_delta(&serve::SharedDeviceSnapshot::preemptions), "count",
       "modeled", na},
      {"serve.pu.joined_jobs",
       pu_delta(&serve::SharedDeviceSnapshot::joined_jobs), "count",
       "modeled", na},
      {"serve.pu.model_switches",
       pu_delta(&serve::SharedDeviceSnapshot::model_switches), "count",
       "modeled", na},
      {"serve.pu.samples_per_pass",
       passes > 0 ? static_cast<double>(traced.pu_samples()) / passes : 0.0,
       "samples", "modeled", na},
      {"serve.pu.utilization",
       pu_wall > 0 ? pu_delta(&serve::SharedDeviceSnapshot::busy_us) * 1e-6 /
                         pu_wall
                   : 0.0,
       "ratio", "modeled", na.empty() ? "modeled busy / wall" : na},
      {"analysis.capacity_ms", median(capacity_ms), "ms", "host",
       "median of 5 capacity_report() calls"},
      {"analysis.bound_ms", bound_us * 1e-3, "ms", "modeled",
       d.shared ? "tenant a proven interactive bound"
                : "no envelope declared on this workload"},
      {"analysis.slack_ms",
       d.shared ? (bound_us - interactive_e2e_p99(base.w)) * 1e-3 : 0.0,
       "ms", "-",
       d.shared ? "bound - untraced interactive server-side e2e p99"
                : "no envelope declared on this workload"},
      {"obs.trace_overhead",
       percentile(tw.latency_us, 0.99) /
           percentile(base.w.latency_us, 0.99),
       "ratio", "host", "traced / untraced latency p99"},
      {"obs.trace_events", static_cast<double>(trace_stats.recorded), "count",
       "-", "obs::trace() recorder"},
      {"obs.trace_dropped", static_cast<double>(trace_stats.dropped), "count",
       "-", "ring wraparound"},
      {"gen.lag_p99_us", percentile(tw.lag_us, 0.99), "us", "host",
       open_loop ? samples_note(tw.lag_us.size(), 0.99)
                 : "closed loop: no schedule"},
      {"serve.latency_samples", static_cast<double>(tw.latency_us.size()),
       "count", "-", "behind the latency percentiles"},
      {"serve.interactive_samples",
       static_cast<double>(tw.interactive_latency_us.size()), "count", "-",
       "behind interactive_p99_ms"},
  };
  layer.insert(layer.end(), traced_metrics.begin(), traced_metrics.end());
  layer.insert(layer.end(), step_metrics.begin(), step_metrics.end());
  print_table("per-layer metrics (" + std::string(workload) +
                  "; end-to-end rows from the untraced window, the rest "
                  "from the traced one)",
              layer);

  // ---- Chrome trace: the benchmark's spans + the recorder's events ----
  std::string json = obs::trace().to_chrome_json();
  const std::size_t close = json.rfind("\n]");
  if (close == std::string::npos) fail("unexpected trace JSON layout");
  const bool empty = json.find('{', json.find('[')) > close;
  json.insert(close, (empty ? "\n" : ",\n") + spans.chrome_events());
  const std::string path = args.out_dir + "/trace-" + workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream file(path);
  file << json;
  file.flush();
  if (!file) fail("could not write " + path);
  std::printf("trace: %s (%zu benchmark spans, %llu recorder events)\n",
              path.c_str(), spans.size(),
              static_cast<unsigned long long>(trace_stats.recorded));

  print_result(layer, tw.attempted, tw.failed());
  return 0;
}
