// Full paper-scale run: ingests the complete dataset sizes the paper
// evaluates — 1,569,898 NASA records and 6,442,892 Gowalla records —
// through the real threaded FRESQUE pipeline, publishing on the paper's
// cadence, then queries the result. Not a scaling figure (one 4-core
// host; bench/fresque_bench has the current rates), but proof the
// implementation sustains paper-sized state: randomer buffers,
// metadata caches, multi-million-record publications, decrypt-verified
// query answers.

#include "bench/bench_util.h"
#include "bench/drivers.h"
#include "common/clock.h"

using fresque::Stopwatch;
using fresque::bench::BinningOf;
using fresque::bench::Fmt;
using fresque::bench::MakeConfig;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;

int main() {
  fresque::bench::PrintEnvironmentHeader();
  struct Workload {
    const char* label;
    fresque::record::DatasetSpec spec;
    int publications;
    // Ground-truth window, as fractions of the domain. Placed in each
    // dataset's dense region: recall in dense leaves is the useful
    // signal (sparse-tail pruning is quantified separately by
    // bench_accuracy_epsilon).
    double win_lo, win_hi;
  };
  Workload workloads[] = {
      {"NASA", ValueOrExit(fresque::record::NasaDataset()), 4, 0.001,
       0.02},
      {"Gowalla", ValueOrExit(fresque::record::GowallaDataset()), 8, 0.40,
       0.42},
  };

  TableWriter table("Paper-scale ingest (full dataset sizes, one host)",
                    {"dataset", "records", "wall_s", "rps", "cloud_MiB",
                     "recall_pct"});
  for (auto& wl : workloads) {
    const uint64_t total = wl.spec.paper_record_count;
    const uint64_t per_interval = total / wl.publications;

    fresque::cloud::CloudServer server(BinningOf(wl.spec));
    fresque::engine::CloudNode cloud_node(&server, 1 << 15);
    cloud_node.Start();
    fresque::crypto::KeyManager keys(fresque::Bytes(32, 0x42));
    auto cfg = MakeConfig(wl.spec, 4);
    fresque::engine::FresqueCollector collector(cfg, keys,
                                                cloud_node.inbox());
    if (!collector.Start().ok()) return 1;

    auto gen = fresque::record::MakeGenerator(wl.spec, 1);
    // Exact ground truth for one 2%-wide value window: memory stays
    // modest and recall over that window is exact.
    double span = wl.spec.domain_max - wl.spec.domain_min;
    fresque::index::RangeQuery window{
        wl.spec.domain_min + wl.win_lo * span,
        wl.spec.domain_min + wl.win_hi * span};
    const auto& schema = wl.spec.parser->schema();
    std::vector<fresque::record::Record> truth_window;
    Stopwatch watch;
    uint64_t ingested = 0;
    for (int pub = 0; pub < wl.publications; ++pub) {
      for (uint64_t i = 0; i < per_interval; ++i, ++ingested) {
        std::string line = (*gen)->NextLine();
        auto rec = wl.spec.parser->Parse(line);
        if (rec.ok()) {
          auto v = rec->IndexedValue(schema);
          if (v.ok() && *v >= window.lo && *v <= window.hi) {
            truth_window.push_back(std::move(*rec));
          }
        }
        collector.SetIntervalProgress(
            static_cast<double>(i) / static_cast<double>(per_interval));
        (void)collector.Ingest(line);
      }
      (void)collector.Publish();
    }
    (void)collector.Shutdown();
    double wall = watch.ElapsedSeconds();
    cloud_node.Shutdown();
    if (!cloud_node.first_error().ok()) {
      std::cerr << "cloud error: "
                << cloud_node.first_error().ToString() << "\n";
      return 1;
    }

    fresque::client::Client client(keys, &wl.spec.parser->schema());
    auto acc = client.QueryWithGroundTruth(server, window, truth_window);
    double recall = acc.ok() ? acc->Recall() : -1;

    table.Row({wl.label, std::to_string(ingested), Fmt(wall, "%.1f"),
               Fmt(static_cast<double>(ingested) / wall, "%.0f"),
               Fmt(static_cast<double>(server.total_bytes()) / (1 << 20),
                   "%.0f"),
               Fmt(100 * recall, "%.1f")});
  }
  table.WriteCsv("paper_scale");
  return 0;
}
