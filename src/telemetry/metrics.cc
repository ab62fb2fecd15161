#include "telemetry/metrics.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
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

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const double target = q * static_cast<double>(count);
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t prev = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) >= target) {
      const double lo = static_cast<double>(Histogram::BucketLowerBound(b));
      const double hi = static_cast<double>(Histogram::BucketUpperBound(b));
      const double frac =
          (target - static_cast<double>(prev)) /
          static_cast<double>(buckets[b]);
      return lo + (hi - lo) * (frac < 0 ? 0 : frac > 1 ? 1 : frac);
    }
  }
  return static_cast<double>(Histogram::BucketUpperBound(buckets.size() - 1));
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

void JsonEscape(const std::string& s, std::ostringstream& out) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
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

std::string ToJson(const MetricsSnapshot& snap) {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    JsonEscape(snap.counters[i].first, out);
    out << ": " << snap.counters[i].second;
  }
  out << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    out << (i ? ",\n    " : "\n    ");
    JsonEscape(snap.gauges[i].first, out);
    out << ": " << snap.gauges[i].second;
  }
  out << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out << (i ? ",\n    " : "\n    ");
    JsonEscape(h.name, out);
    out << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"buckets\": [";
    bool first = true;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      out << (first ? "" : ", ") << "[" << b << ", " << h.buckets[b] << "]";
      first = false;
    }
    out << "]}";
  }
  out << (snap.histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (full grammar; numbers kept as raw text so uint64
// counters round-trip exactly).

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // raw number text, or decoded string
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Result<JsonValue> Parse() {
    auto v = ParseValue();
    if (!v.ok()) return v;
    SkipWs();
    if (pos_ != s_.size()) return Err("trailing characters");
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::Corruption("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (++depth_ > 64) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= s_.size()) return Err("unexpected end");
    Result<JsonValue> out;  // error state until a branch assigns
    const char c = s_[pos_];
    if (c == '{') {
      out = ParseObject();
    } else if (c == '[') {
      out = ParseArray();
    } else if (c == '"') {
      out = ParseString();
    } else if (c == 't' || c == 'f' || c == 'n') {
      out = ParseKeyword();
    } else {
      out = ParseNumber();
    }
    --depth_;
    return out;
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (Consume('}')) return v;
    while (true) {
      SkipWs();
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Err("expected ':'");
      auto val = ParseValue();
      if (!val.ok()) return val;
      v.object.emplace_back(std::move(key->text), std::move(*val));
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return Err("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (Consume(']')) return v;
    while (true) {
      auto val = ParseValue();
      if (!val.ok()) return val;
      v.array.push_back(std::move(*val));
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return Err("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseString() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Err("expected string");
    ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char e = s_[pos_++];
        switch (e) {
          case '"':
          case '\\':
          case '/':
            v.text.push_back(e);
            break;
          case 'n':
            v.text.push_back('\n');
            break;
          case 't':
            v.text.push_back('\t');
            break;
          case 'r':
            v.text.push_back('\r');
            break;
          case 'b':
          case 'f':
            v.text.push_back(' ');
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Err("bad \\u escape");
            // Decoded only far enough for ASCII round-trips.
            unsigned code = std::strtoul(s_.substr(pos_, 4).c_str(), nullptr,
                                         16);
            pos_ += 4;
            v.text.push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default:
            return Err("bad escape");
        }
      } else {
        v.text.push_back(c);
      }
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseKeyword() {
    auto match = [&](const char* kw) {
      size_t n = std::string(kw).size();
      if (s_.compare(pos_, n, kw) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    JsonValue v;
    if (match("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (match("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (match("null")) return v;
    return Err("bad keyword");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.text = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

Result<uint64_t> AsU64(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) {
    return Status::Corruption("json: expected number");
  }
  errno = 0;
  char* end = nullptr;
  uint64_t out = std::strtoull(v.text.c_str(), &end, 10);
  if (errno != 0 || end == v.text.c_str() || *end != '\0') {
    return Status::Corruption("json: bad uint64 \"" + v.text + "\"");
  }
  return out;
}

Result<int64_t> AsI64(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) {
    return Status::Corruption("json: expected number");
  }
  errno = 0;
  char* end = nullptr;
  int64_t out = std::strtoll(v.text.c_str(), &end, 10);
  if (errno != 0 || end == v.text.c_str() || *end != '\0') {
    return Status::Corruption("json: bad int64 \"" + v.text + "\"");
  }
  return out;
}

}  // namespace

Status ValidateJsonSyntax(const std::string& text) {
  return JsonParser(text).Parse().status();
}

Result<MetricsSnapshot> ParseMetricsJson(const std::string& text) {
  auto root = JsonParser(text).Parse();
  if (!root.ok()) return root.status();
  if (root->kind != JsonValue::Kind::kObject) {
    return Status::Corruption("metrics json: top level is not an object");
  }
  MetricsSnapshot snap;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* v = root->Find(section);
    if (v != nullptr && v->kind != JsonValue::Kind::kObject) {
      return Status::Corruption(std::string("metrics json: \"") + section +
                                "\" is not an object");
    }
  }
  if (const JsonValue* counters = root->Find("counters")) {
    for (const auto& [name, v] : counters->object) {
      auto value = AsU64(v);
      if (!value.ok()) return value.status();
      snap.counters.emplace_back(name, *value);
    }
  }
  if (const JsonValue* gauges = root->Find("gauges")) {
    for (const auto& [name, v] : gauges->object) {
      auto value = AsI64(v);
      if (!value.ok()) return value.status();
      snap.gauges.emplace_back(name, *value);
    }
  }
  if (const JsonValue* histograms = root->Find("histograms")) {
    for (const auto& [name, v] : histograms->object) {
      HistogramSnapshot hs;
      hs.name = name;
      const JsonValue* count = v.Find("count");
      const JsonValue* sum = v.Find("sum");
      const JsonValue* buckets = v.Find("buckets");
      if (count == nullptr || sum == nullptr || buckets == nullptr ||
          buckets->kind != JsonValue::Kind::kArray) {
        return Status::Corruption("metrics json: histogram \"" + name +
                                  "\" missing count/sum/buckets");
      }
      auto c = AsU64(*count);
      auto s = AsU64(*sum);
      if (!c.ok()) return c.status();
      if (!s.ok()) return s.status();
      hs.count = *c;
      hs.sum = *s;
      for (const auto& pair : buckets->array) {
        if (pair.array.size() != 2) {
          return Status::Corruption("metrics json: bucket is not a pair");
        }
        auto idx = AsU64(pair.array[0]);
        auto n = AsU64(pair.array[1]);
        if (!idx.ok()) return idx.status();
        if (!n.ok()) return n.status();
        if (*idx >= hs.buckets.size()) {
          return Status::Corruption("metrics json: bucket index out of range");
        }
        hs.buckets[*idx] = *n;
      }
      snap.histograms.push_back(std::move(hs));
    }
  }
  return snap;
}

std::string FormatMetricsTable(const MetricsSnapshot& snap) {
  std::ostringstream out;
  char buf[256];
  if (!snap.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snap.counters) {
      std::snprintf(buf, sizeof(buf), "  %-44s %20llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      out << buf;
    }
  }
  if (!snap.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snap.gauges) {
      std::snprintf(buf, sizeof(buf), "  %-44s %20lld\n", name.c_str(),
                    static_cast<long long>(value));
      out << buf;
    }
  }
  if (!snap.histograms.empty()) {
    out << "histograms:                                      "
           "count         mean          p50          p99          max\n";
    for (const auto& h : snap.histograms) {
      std::snprintf(buf, sizeof(buf),
                    "  %-44s %7llu %12.0f %12.0f %12.0f %12.0f\n",
                    h.name.c_str(), static_cast<unsigned long long>(h.count),
                    h.Mean(), h.Quantile(0.5), h.Quantile(0.99),
                    h.Quantile(1.0));
      out << buf;
    }
  }
  return out.str();
}

Status WriteMetricsFile(const MetricsSnapshot& snap, const std::string& path) {
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = json ? ToJson(snap) : ToPrometheusText(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp);
    out << body;
    if (!out.good()) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace telemetry
}  // namespace fresque
