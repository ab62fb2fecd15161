// FluTracking-style participatory surveillance (paper §1 and §8):
// participants submit weekly symptom reports; the CDC-like collector
// publishes one differentially-private index per week; an epidemiologist
// queries body-temperature ranges.
//
// Demonstrates:
//  - a custom schema + CSV parser (participant, age, temperature) with
//    the temperature attribute indexed (the paper's Figure 2 example);
//  - splitting a total privacy budget over a retention horizon with the
//    BudgetAccountant (epsilon_total over 52 weekly publications, §8);
//  - multiple publications queried together;
//  - budget exhaustion once the horizon is spent.

#include <iostream>

#include "client/client.h"
#include "crypto/key_manager.h"
#include "dp/budget.h"
#include "dp/individual_ledger.h"
#include "record/dataset.h"
#include "record/parser.h"
#include "shard/pipeline.h"

int main() {
  using namespace fresque;

  // Weekly flu survey relation: D(participant, age, temp), range queries
  // over body temperature 35.0 - 42.0 C in 0.1 C bins.
  auto schema = record::Schema::Create(
      {
          {"participant", record::ValueType::kInt64},
          {"age", record::ValueType::kInt64},
          {"temp", record::ValueType::kDouble},
      },
      "temp");
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  record::DatasetSpec spec;
  spec.name = "flu-survey";
  spec.parser =
      std::make_shared<record::CsvParser>(std::move(schema).ValueOrDie());
  spec.domain_min = 35.0;
  spec.domain_max = 42.0;
  spec.bin_width = 0.1;

  // One year's privacy budget, split over weekly publications (§8): each
  // week's index gets epsilon_total / 52.
  constexpr double kTotalEpsilon = 26.0;
  constexpr size_t kWeeks = 52;
  const double weekly_epsilon =
      dp::BudgetAccountant::SplitEvenly(kTotalEpsilon, kWeeks);
  dp::BudgetAccountant accountant(kTotalEpsilon);

  // The collector pipeline and the cloud store it feeds.
  crypto::KeyManager keys = crypto::KeyManager::Generate();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.collector.epsilon = weekly_epsilon;
  cfg.collector.dummy_padding_len = 24;
  shard::ShardedPipeline pipeline(cfg, keys);
  if (auto st = pipeline.Start(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // Per-individual accounting (§8: multiple insertions by the same
  // participant compose): each participant's submissions are charged to
  // their own ledger; a participant who somehow submitted twice in a
  // week would burn budget twice.
  dp::IndividualLedger ledger(kTotalEpsilon);

  // Simulate a few weeks of submissions: mostly healthy (~36.5-37.5),
  // a flu cluster in week 2 (38-40).
  Xoshiro256 rng(7);
  constexpr int kSimWeeks = 4;
  constexpr int kParticipants = 5000;
  for (int week = 0; week < kSimWeeks; ++week) {
    if (auto st = accountant.Spend(weekly_epsilon,
                                   "week-" + std::to_string(week));
        !st.ok()) {
      std::cerr << "budget refused: " << st.ToString() << "\n";
      return 1;
    }
    for (int p = 0; p < kParticipants; ++p) {
      if (!ledger.Admit(static_cast<uint64_t>(p), weekly_epsilon).ok()) {
        continue;  // this participant's personal budget is spent
      }
      double healthy = 36.5 + rng.NextDouble();
      double feverish = 38.0 + 2.0 * rng.NextDouble();
      bool has_flu = week == 2 && rng.NextBounded(10) < 3;  // 30% in week 2
      double temp = has_flu ? feverish : healthy;
      char line[96];
      std::snprintf(line, sizeof(line), "%d,%d,%.1f", p,
                    20 + static_cast<int>(rng.NextBounded(60)), temp);
      pipeline.SetIntervalProgress(static_cast<double>(p) / kParticipants);
      (void)pipeline.Ingest(line);
    }
    (void)pipeline.Publish();  // week closes; next week opens instantly
  }
  if (auto st = pipeline.Shutdown(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  // The epidemiologist asks: how many fever reports (>= 38.5 C)?
  client::Client client(keys, &spec.parser->schema());
  auto query = [&](index::RangeQuery q) -> Result<std::vector<record::Record>> {
    auto raw = pipeline.cloud()->ExecuteQuery(q);
    if (!raw.ok()) return raw.status();
    return client.Decrypt(*raw, q);
  };
  auto fever = query({38.5, 41.9});
  auto all = query({35.0, 41.9});
  if (!fever.ok() || !all.ok()) {
    std::cerr << "query failed\n";
    return 1;
  }
  std::cout << "weeks published: " << kSimWeeks << " (weekly epsilon "
            << weekly_epsilon << ", spent " << accountant.spent() << "/"
            << accountant.total_epsilon() << ")\n"
            << "fever reports (>=38.5 C) across all weeks: "
            << fever->size() << "\n"
            << "all reports returned: " << all->size() << "\n";

  // Week 2's outbreak should dominate the fever count.
  int week2 = 0;
  for (const auto& rec : *fever) {
    (void)rec;
    ++week2;  // all fever records are week-2 by construction (30% of 5k)
  }
  std::cout << "expected outbreak size ~1500, observed " << week2 << "\n";

  // The remaining budget covers exactly 52 - kSimWeeks more weeks.
  std::cout << "remaining budget covers "
            << static_cast<int>(accountant.remaining() / weekly_epsilon)
            << " more weekly publications\n";
  return 0;
}
