// What does the honest-but-curious cloud actually see? This example
// contrasts the adversary's view (ciphertexts, noisy counts, mixed
// arrival order) with the trusted client's view — a hands-on companion to
// the paper's §6 security analysis.

#include <algorithm>
#include <iostream>

#include "client/client.h"
#include "common/bytes.h"
#include "crypto/key_manager.h"
#include "record/dataset.h"
#include "shard/pipeline.h"

int main() {
  using namespace fresque;
  auto spec = record::GowallaDataset();
  if (!spec.ok()) return 1;

  // One pipeline (collector -> cloud store), one shard.
  crypto::KeyManager keys = crypto::KeyManager::Generate();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = *spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.collector.epsilon = 0.5;  // visibly noisy counts
  shard::ShardedPipeline pipeline(cfg, keys);
  if (!pipeline.Start().ok()) return 1;

  auto gen = record::MakeGenerator(*spec, 3);
  constexpr int kRecords = 8000;
  for (int i = 0; i < kRecords; ++i) {
    pipeline.SetIntervalProgress(static_cast<double>(i) / kRecords);
    if (!pipeline.Ingest((*gen)->NextLine()).ok()) return 1;
  }
  (void)pipeline.Publish();
  if (!pipeline.Shutdown().ok()) return 1;

  // --- Adversary's view -------------------------------------------------
  index::RangeQuery q{spec->domain_min, spec->domain_min + 50 * 3600.0};
  auto result = pipeline.cloud()->ExecuteQuery(q);
  if (!result.ok()) return 1;
  std::cout << "=== cloud (adversary) view ===\n"
            << "query touches " << result->TotalRecords()
            << " ciphertexts; the first three look like:\n";
  for (size_t i = 0; i < 3 && i < result->indexed_records.size(); ++i) {
    const Bytes& ct = result->indexed_records[i].e_record;
    Bytes prefix(ct.begin(), ct.begin() + std::min<size_t>(24, ct.size()));
    std::cout << "  " << ToHex(prefix) << "... (" << ct.size()
              << " bytes, IV+AES-CBC)\n";
  }
  std::cout << "The cloud cannot tell which of these are dummies, and the\n"
            << "index counts it stores are Laplace-noised: some leaves\n"
            << "claim MORE records than exist, others FEWER (even < 0).\n";

  // --- Client view -------------------------------------------------------
  client::Client client(keys, &spec->parser->schema());
  auto records = client.Decrypt(*result, q);
  if (!records.ok()) return 1;
  std::cout << "\n=== trusted client view (after decryption) ===\n"
            << "same query decrypts to " << records->size()
            << " real records (dummies discarded, exact post-filter)\n";
  for (size_t i = 0; i < 3 && i < records->size(); ++i) {
    std::cout << "  " << (*records)[i].ToString() << "\n";
  }

  std::cout << "\nOver-fetch the client silently absorbed: "
            << (result->TotalRecords() - records->size())
            << " ciphertexts (dummies + bin-granularity over-coverage)\n";
  return 0;
}
