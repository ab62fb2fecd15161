// Quickstart: stand up the full FRESQUE pipeline — collector, cloud,
// client — ingest a stream of check-ins, publish one secure index, and
// run an encrypted range query.
//
//   cmake --build build && ./build/examples/quickstart

#include <iostream>

#include "client/client.h"
#include "crypto/key_manager.h"
#include "record/dataset.h"
#include "shard/pipeline.h"

int main() {
  using namespace fresque;

  // 1. Pick a workload. DatasetSpec bundles the raw-line parser and the
  //    indexed attribute's domain/binning (here: Gowalla-like check-ins,
  //    626 one-hour bins over the check-in time).
  auto spec = record::GowallaDataset();
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }

  // 2. The trusted collector plus the untrusted cloud it feeds: one
  //    pipeline (dispatcher -> computing nodes -> checking node -> merger
  //    -> cloud store). cfg.shard.num_shards runs N copies side by side;
  //    the default is one.
  crypto::KeyManager keys = crypto::KeyManager::Generate();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = *spec;
  cfg.collector.num_computing_nodes = 4;  // parse+encrypt fan-out
  cfg.collector.epsilon = 1.0;            // per-publication DP budget
  shard::ShardedPipeline pipeline(cfg, keys);
  if (auto st = pipeline.Start(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // 3. Stream raw text lines. The dispatcher round-robins them to the
  //    computing nodes; dummies and noise management happen underneath.
  auto gen = record::MakeGenerator(*spec, /*seed=*/2021);
  constexpr int kRecords = 20000;
  for (int i = 0; i < kRecords; ++i) {
    pipeline.SetIntervalProgress(static_cast<double>(i) / kRecords);
    if (auto st = pipeline.Ingest((*gen)->NextLine()); !st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }

  // 4. Close the publishing interval. Publication work runs on the
  //    merger while the collector is already ingesting the next interval.
  //    Shutdown drains the pipeline and waits for the cloud's acks.
  (void)pipeline.Publish();
  if (auto st = pipeline.Shutdown(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // 5. Query: the cloud answers a range over the indexed attribute with
  //    ciphertexts; the client decrypts them and discards dummies.
  const shard::ShardedCloudServer& cloud = *pipeline.cloud();
  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q;
  q.lo = spec->domain_min + 100 * 3600.0;  // hours 100..200 of the window
  q.hi = spec->domain_min + 200 * 3600.0;
  auto raw = cloud.ExecuteQuery(q);
  if (!raw.ok()) {
    std::cerr << raw.status().ToString() << "\n";
    return 1;
  }
  auto result = client.Decrypt(*raw, q);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }

  std::cout << "ingested " << kRecords << " records, published 1 index\n"
            << "range query [hour 100, hour 200] returned "
            << result->size() << " records\n"
            << "cloud stores " << cloud.total_bytes()
            << " bytes across " << cloud.num_publications()
            << " publication(s)\n";
  if (!result->empty()) {
    std::cout << "first match: " << (*result)[0].ToString() << "\n";
  }
  return 0;
}
