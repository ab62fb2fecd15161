// fresque_bench: one run of one pinned workload through the public
// shard::ShardedPipeline (the unsharded pipeline is N=1).
//
//   fresque_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--data-dir DIR]
//
// Prints a readable log, then as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1: the same live run, then a single-threaded traced replay).
// --smoke shrinks the run (records 100x, publication interval 10x).
// Exit code 0 when every correctness check passed, 1 when one failed, 2 on
// bad arguments.

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "live.h"
#include "traced.h"

namespace {

using fresque::fbench::Metric;

int Usage(const std::string& why) {
  std::cerr << "fresque_bench: " << why << "\n"
            << "usage: fresque_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--data-dir DIR]\n"
            << "workloads:";
  for (const auto& w : fresque::fbench::Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

/// Parses all of `s` as a number.
template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
  return r.ec == std::errc() && r.ptr == s.data() + s.size();
}

bool ParseOptions(int argc, char** argv, fresque::fbench::Options* o,
                  std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, &o->seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, &o->seconds) && o->seconds > 0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      o->trace = value == "1";
    } else if (flag == "--data-dir") {
      o->data_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (fresque::fbench::FindWorkload(o->workload) == nullptr) {
    *error = "unknown workload '" + o->workload + "'";
    return false;
  }
  return true;
}

/// Shortest decimal that reads back as the same double.
std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  fresque::fbench::Options o;
  std::string error;
  if (!ParseOptions(argc, argv, &o, &error)) return Usage(error);
  const fresque::fbench::Workload& w =
      *fresque::fbench::FindWorkload(o.workload);

  const fresque::fbench::LinePool pool = fresque::fbench::MakeLinePool(w, o);
  std::cout << "workload " << w.name << ": seed " << o.seed << ", "
            << pool.lines.size() << "-line " << w.dataset << " pool, "
            << w.shards << " shard(s) x k=" << w.k << ", "
            << (w.loop == fresque::fbench::Loop::kOpen ? "open" : "closed")
            << " loop\n";

  const fresque::fbench::LiveResult live = RunLive(w, o, pool);
  std::cout << "offered " << live.offered << " records, "
            << live.publications << " publications, " << live.queries
            << " queries; routed per shard:";
  for (uint64_t n : live.routed) std::cout << " " << n;
  std::cout << "\n";
  std::cout << "publication latency p50: " << live.publish_p50_ms << " ms\n";
  if (w.query_qps > 0) {
    std::cout << "queries beside ingest: p50 " << live.query_p50_ms
              << " ms, p99 " << live.query_p99_ms << " ms\n";
  }
  if (w.durable) std::cout << "recovery_s: " << live.recovery_s << "\n";

  std::vector<Metric> metrics;
  bool correct = live.failed_checks.empty();
  if (o.trace) {
    metrics = RunTraced(w, o, pool, live);
    if (metrics.empty()) correct = false;
  } else {
    metrics = {
        {"ingest_rps", live.ingest_rps, "rec/s"},
        {"record_e2e_p50_ms", live.e2e_p50_ms, "ms"},
        {"record_e2e_p99_ms", live.e2e_p99_ms, "ms"},
        {"setup_s", live.setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }
  for (auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::cout << "check metric " << m.name << ": FAILED (not finite)\n";
      m.value = 0;
      correct = false;
    }
  }
  if (!correct) {
    std::cout << "FAILED checks:";
    for (const auto& c : live.failed_checks) std::cout << " " << c;
    std::cout << "\n";
  }
  PrintResult(correct,
              live.offered + live.publications + live.queries,
              live.failed_ops, metrics);
  return correct ? 0 : 1;
}
