#include "telemetry/metrics.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fresque {
namespace telemetry {

// ---------------------------------------------------------------------------
// Histogram

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

void Histogram::RecordMany(const uint64_t* values, size_t n) {
  std::array<uint64_t, kBucketCount> counts{};
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    ++counts[BucketIndex(values[i])];
    sum += values[i];
  }
  for (size_t b = 0; b < kBucketCount; ++b) {
    if (counts[b] != 0) {
      buckets_[b].fetch_add(counts[b], std::memory_order_relaxed);
    }
  }
  sum_.fetch_add(sum, std::memory_order_relaxed);
}

void Histogram::ResetForTest() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

Registry* Registry::Global() {
  static Registry* registry = new Registry();  // leaked: lives past exit
  return registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot Registry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->Value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->Value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.sum = h->Sum();
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      hs.buckets[b] = h->BucketValue(b);
      hs.count += hs.buckets[b];
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Registry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->ResetForTest();
  for (auto& [name, g] : gauges_) g->ResetForTest();
  for (auto& [name, h] : histograms_) h->ResetForTest();
}

// ---------------------------------------------------------------------------
// Exporters

namespace {

/// "ingest.records_in" -> "fresque_ingest_records_in".
std::string PromName(const std::string& name) {
  std::string out = "fresque_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    const std::string p = PromName(name);
    out << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string p = PromName(name);
    out << "# TYPE " << p << " gauge\n" << p << " " << value << "\n";
  }
  for (const auto& h : snap.histograms) {
    const std::string p = PromName(h.name);
    out << "# TYPE " << p << " histogram\n";
    // Cumulative buckets; stop at the last non-empty bucket, +Inf closes.
    size_t last = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] != 0) last = b;
    }
    uint64_t cum = 0;
    for (size_t b = 0; b <= last; ++b) {
      cum += h.buckets[b];
      out << p << "_bucket{le=\"" << Histogram::BucketUpperBound(b) << "\"} "
          << cum << "\n";
    }
    out << p << "_bucket{le=\"+Inf\"} " << h.count << "\n"
        << p << "_sum " << h.sum << "\n"
        << p << "_count " << h.count << "\n";
  }
  return out.str();
}

Status WriteMetricsFile(const MetricsSnapshot& snap, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    out << ToPrometheusText(snap);
    if (!out.good()) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace telemetry
}  // namespace fresque
