// Reproduces Figure 15: cloud-side matching time vs publication size
// (1M..5M records) — FRESQUE's metadata-cache matching against parallel
// PINED-RQ++'s matching-table re-read.
//
// Paper shape: PINED-RQ++ matching grows linearly into tens of seconds
// (~78s NASA / ~76s Gowalla at 5M) while FRESQUE stays flat at tens of
// ms — at least two orders of magnitude apart. FRESQUE's win comes from
// never re-reading records: the `<leaf, address>` metadata is grouped
// during ingestion.

#include <memory>
#include <span>

#include "bench/bench_util.h"
#include "bench/drivers.h"
#include "crypto/chacha20.h"
#include "net/payloads.h"

using fresque::Bytes;
using fresque::bench::BinningOf;
using fresque::bench::Fmt;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;

namespace {

struct MatchingTimes {
  double fresque_ms = 0;
  double ppp_ms = 0;
};

// Streams `n` synthetic e-records into a CloudServer both ways and times
// the two matching procedures directly (no collector in the loop — this
// isolates the cloud-side cost the figure is about).
MatchingTimes TimeMatching(const fresque::record::DatasetSpec& spec,
                           size_t n, size_t record_bytes) {
  fresque::crypto::SecureRandom rng(99);
  auto binning = BinningOf(spec);
  const size_t leaves = binning.num_bins();

  auto layout = fresque::index::IndexLayout::Create(leaves, 16);
  fresque::index::HistogramIndex index(std::move(layout).ValueOrDie(),
                                       binning);
  // One signed payload, installed by both stores; matching_millis leaves
  // out its decode.
  auto publication = fresque::net::EncodeSignedIndexPublication(
      fresque::net::IndexPublication(std::move(index),
                                     fresque::index::OverflowArrays(leaves, 1)),
      Bytes(32, 0x4B), 0,
      [](uint8_t*, std::span<const size_t>) { return fresque::Status::OK(); });
  const auto signed_payload =
      std::make_shared<const Bytes>(std::move(publication).ValueOrDie());

  MatchingTimes out;

  // FRESQUE: <leaf, e-record> stream, metadata matching.
  {
    fresque::cloud::CloudServer server(binning);
    (void)server.StartPublication(0);
    Bytes payload = rng.RandomBytes(record_bytes);
    for (size_t i = 0; i < n; ++i) {
      (void)server.IngestRecord(0, static_cast<uint32_t>(i % leaves),
                                payload);
    }
    auto stats = server.PublishIndexed(0, signed_payload);
    out.fresque_ms = stats.ok() ? stats->matching_millis : -1;
  }

  // Parallel PINED-RQ++: <tag, e-record> stream + matching table;
  // matching re-reads every record.
  {
    fresque::cloud::CloudServer server(binning);
    (void)server.StartPublication(0);
    fresque::index::MatchingTable table;
    Bytes payload = rng.RandomBytes(record_bytes);
    for (size_t i = 0; i < n; ++i) {
      uint64_t tag = (static_cast<uint64_t>(i) << 20) ^ 0x5EEDF00D;
      (void)table.Add(tag, static_cast<uint32_t>(i % leaves));
      (void)server.IngestTagged(0, tag, payload);
    }
    auto stats = server.PublishWithMatchingTable(0, signed_payload, table);
    out.ppp_ms = stats.ok() ? stats->matching_millis : -1;
  }
  return out;
}

}  // namespace

int main() {
  fresque::bench::PrintEnvironmentHeader();
  struct Workload {
    const char* label;
    fresque::record::DatasetSpec spec;
    size_t record_bytes;
    const char* csv;
  };
  Workload workloads[] = {
      {"NASA", ValueOrExit(fresque::record::NasaDataset()), 120,
       "fig15_matching_nasa"},
      {"Gowalla", ValueOrExit(fresque::record::GowallaDataset()), 48,
       "fig15_matching_gowalla"},
  };

  for (auto& wl : workloads) {
    TableWriter table(std::string("Fig 15 (") + wl.label +
                          "): cloud matching time (ms)",
                      {"records", "fresque_ms", "ppp_ms", "ratio_x"});
    for (size_t m = 1; m <= 5; ++m) {
      size_t n = m * 1000000;
      auto t = TimeMatching(wl.spec, n, wl.record_bytes);
      table.Row({std::to_string(m) + "M", Fmt(t.fresque_ms, "%.1f"),
                 Fmt(t.ppp_ms, "%.1f"),
                 Fmt(t.fresque_ms > 0 ? t.ppp_ms / t.fresque_ms : 0,
                     "%.0f")});
    }
    table.WriteCsv(wl.csv);
  }
  return 0;
}
