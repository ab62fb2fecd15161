#include "obs/sampler.h"

#include <chrono>
#include <vector>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace obs {

namespace {

std::atomic<bool> g_sampling_active{false};
std::atomic<int64_t> g_slo_target_ns{0};
std::atomic<int64_t> g_last_sample_ns{0};

}  // namespace

StreamingQuantiles* GlobalE2eSketch() {
  static StreamingQuantiles* sketch = new StreamingQuantiles();  // leaked
  return sketch;
}

void SetE2eSamplingActive(bool active) {
  g_sampling_active.store(active, std::memory_order_release);
}

bool E2eSamplingActive() {
  return g_sampling_active.load(std::memory_order_acquire);
}

void SetSloE2eTargetNs(int64_t target_ns) {
  g_slo_target_ns.store(target_ns, std::memory_order_release);
}

int64_t SloE2eTargetNs() {
  return g_slo_target_ns.load(std::memory_order_acquire);
}

void NoteE2eSample(int64_t e2e_ns) {
  NoteE2eSample(e2e_ns, telemetry::NowNanos());
}

void NoteE2eSample(int64_t e2e_ns, int64_t now_ns) {
  const uint64_t v = e2e_ns > 0 ? static_cast<uint64_t>(e2e_ns) : 0;
  NoteE2eSamples(&v, 1, now_ns);
}

void NoteE2eSamples(const uint64_t* e2e_ns, size_t n, int64_t now_ns) {
  if (n == 0) return;
  g_last_sample_ns.store(now_ns, std::memory_order_relaxed);
  const int64_t slo = g_slo_target_ns.load(std::memory_order_relaxed);
  if (slo > 0) {
    size_t violations = 0;
    for (size_t i = 0; i < n; ++i) {
      violations += e2e_ns[i] > static_cast<uint64_t>(slo) ? 1 : 0;
    }
    FRESQUE_COUNTER_ADD("slo.e2e_samples", n);
    if (violations > 0) FRESQUE_COUNTER_ADD("slo.e2e_violations", violations);
  }
  if (g_sampling_active.load(std::memory_order_relaxed)) {
    GlobalE2eSketch()->InsertMany(e2e_ns, n);
  }
}

int64_t LastE2eSampleNanos() {
  return g_last_sample_ns.load(std::memory_order_relaxed);
}

void ResetE2eStateForTest() {
  g_sampling_active.store(false, std::memory_order_release);
  g_slo_target_ns.store(0, std::memory_order_release);
  g_last_sample_ns.store(0, std::memory_order_relaxed);
  GlobalE2eSketch()->ResetForTest();
}

ObsSampler::ObsSampler(uint64_t interval_ms)
    : interval_ms_(interval_ms == 0 ? 1 : interval_ms) {}

ObsSampler::~ObsSampler() { Stop(); }

void ObsSampler::Start() {
  {
    MutexLock lock(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  thread_ = std::thread(&ObsSampler::Loop, this);
}

void ObsSampler::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  {
    MutexLock lock(mu_);
    running_ = false;
  }
  FoldOnce();  // export the final state so a post-run scrape is fresh
}

void ObsSampler::FoldOnce() {
  StreamingQuantiles* sketch = GlobalE2eSketch();
  if (sketch->Count() > 0) {
    const std::vector<uint64_t> qs =
        sketch->QueryMany({0.50, 0.95, 0.99});
    FRESQUE_GAUGE_SET("pipeline.e2e_p50_ns", qs[0]);
    FRESQUE_GAUGE_SET("pipeline.e2e_p95_ns", qs[1]);
    FRESQUE_GAUGE_SET("pipeline.e2e_p99_ns", qs[2]);
  }
  const int64_t last = LastE2eSampleNanos();
  if (last > 0) {
    const int64_t lag_ns = telemetry::NowNanos() - last;
    FRESQUE_GAUGE_SET("ingest.lag_ms", lag_ns > 0 ? lag_ns / 1000000 : 0);
  }
  const int64_t slo = SloE2eTargetNs();
  if (slo > 0) FRESQUE_GAUGE_SET("slo.e2e_target_ms", slo / 1000000);
  folds_.fetch_add(1, std::memory_order_relaxed);
}

void ObsSampler::Loop() {
  for (;;) {
    FoldOnce();
    MutexLock lock(mu_);
    if (stop_) return;
    cv_.WaitFor(mu_, std::chrono::milliseconds(interval_ms_));
    if (stop_) return;
  }
}

}  // namespace obs
}  // namespace fresque
