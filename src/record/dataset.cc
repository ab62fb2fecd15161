#include "record/dataset.h"

#include <cmath>
#include <cstdio>

namespace fresque {
namespace record {

namespace {

// NASA domain: 3421 bins x 1 KB (paper §7.1).
constexpr double kNasaDomainMax = 3421.0 * 1024.0;
// Gowalla domain: 626 bins x 1 hour, measured in epoch seconds from t0.
constexpr double kGowallaT0 = 1230768000.0;  // 2009-01-01, arbitrary anchor
constexpr double kGowallaDomainMax = kGowallaT0 + 626.0 * 3600.0;

constexpr const char* kHosts[] = {
    "piweba3y.prodigy.com", "alyssa.prodigy.com", "www-d1.proxy.aol.com",
    "burger.letters.com",   "in24.inetnebr.com",  "ix-esc-ca2-07.ix.net",
    "uplherc.upl.com",      "slppp6.intermind.net", "133.43.96.45",
    "kgtyk4.kj.yamagata-u.ac.jp", "d0ucr6.fnal.gov", "ix-sac6-20.ix.net",
};

constexpr const char* kPaths[] = {
    "/history/apollo/",
    "/shuttle/countdown/",
    "/shuttle/missions/sts-73/mission-sts-73.html",
    "/shuttle/countdown/liftoff.html",
    "/images/NASA-logosmall.gif",
    "/images/KSC-logosmall.gif",
    "/shuttle/missions/sts-73/sts-73-patch-small.gif",
    "/images/ksclogo-medium.gif",
    "/history/apollo/images/apollo-logo1.gif",
    "/facilities/lc39a.html",
    "/shuttle/resources/orbiters/columbia.html",
    "/cgi-bin/imagemap/countdown?99,176",
};

constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

}  // namespace

Result<DatasetSpec> NasaDataset() {
  auto parser = ApacheLogParser::Create();
  if (!parser.ok()) return parser.status();
  DatasetSpec spec;
  spec.name = "nasa";
  spec.parser = std::shared_ptr<const LineParser>(
      std::move(parser).ValueOrDie().release());
  spec.domain_min = 0.0;
  spec.domain_max = kNasaDomainMax;
  spec.bin_width = 1024.0;
  return spec;
}

Result<DatasetSpec> GowallaDataset() {
  auto schema = Schema::Create(
      {
          {"user", ValueType::kInt64},
          {"checkin_time", ValueType::kInt64},
          {"location", ValueType::kInt64},
      },
      "checkin_time");
  if (!schema.ok()) return schema.status();
  DatasetSpec spec;
  spec.name = "gowalla";
  spec.parser = std::make_shared<CsvParser>(std::move(schema).ValueOrDie());
  spec.domain_min = kGowallaT0;
  spec.domain_max = kGowallaDomainMax;
  spec.bin_width = 3600.0;
  return spec;
}

NasaLogGenerator::NasaLogGenerator(uint64_t seed)
    : rng_(seed), clock_seconds_(0) {}

std::string NasaLogGenerator::NextLine() {
  // Reply size: clipped log-normal — heavy-tailed like real web replies.
  // exp(N(8.3, 1.9)) has median ~4 KB and a long tail into the MB range.
  double u1 = rng_.NextDoubleOpenLow();
  double u2 = rng_.NextDouble();
  double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  double size = std::exp(8.3 + 1.9 * normal);
  int64_t bytes = static_cast<int64_t>(size);
  if (bytes >= static_cast<int64_t>(kNasaDomainMax)) {
    bytes = static_cast<int64_t>(kNasaDomainMax) - 1;
  }
  if (bytes < 0) bytes = 0;

  const char* host = kHosts[rng_.NextBounded(std::size(kHosts))];
  const char* path = kPaths[rng_.NextBounded(std::size(kPaths))];

  // Advance a synthetic July-1995 wall clock ~3 requests/second.
  clock_seconds_ += static_cast<int64_t>(rng_.NextBounded(2));
  int64_t t = clock_seconds_;
  int day = 1 + static_cast<int>((t / 86400) % 28);
  int hh = static_cast<int>((t / 3600) % 24);
  int mm = static_cast<int>((t / 60) % 60);
  int ss = static_cast<int>(t % 60);

  int status;
  uint64_t roll = rng_.NextBounded(100);
  if (roll < 88) {
    status = 200;
  } else if (roll < 96) {
    status = 304;
    bytes = 0;
  } else {
    status = 404;
    bytes = 0;
  }

  // Method mix approximates the real trace: GETs dominate, with
  // occasional HEADs (no body).
  const char* method = "GET";
  if (rng_.NextBounded(50) == 0) {
    method = "HEAD";
    bytes = 0;
  }

  char buf[320];
  int n = std::snprintf(
      buf, sizeof(buf),
      "%s - - [%02d/%s/1995:%02d:%02d:%02d -0400] \"%s %s HTTP/1.0\" %d %lld",
      host, day, kMonths[6], hh, mm, ss, method, path, status,
      static_cast<long long>(bytes));
  return std::string(buf, static_cast<size_t>(n));
}

GowallaGenerator::GowallaGenerator(uint64_t seed) : rng_(seed) {}

std::string GowallaGenerator::NextLine() {
  int64_t user = static_cast<int64_t>(rng_.NextBounded(200000));

  // Check-in times follow a diurnal cycle like the real Gowalla trace:
  // day picked uniformly, hour-of-day biased toward afternoon/evening
  // (accept-reject against a raised-cosine profile peaking at 18:00).
  uint64_t day = rng_.NextBounded(626 / 24);
  uint64_t hour;
  for (;;) {
    hour = rng_.NextBounded(24);
    double phase =
        (static_cast<double>(hour) - 18.0) * (3.14159265358979 / 12.0);
    double accept = 0.55 + 0.45 * std::cos(phase);
    if (rng_.NextDouble() < accept) break;
  }
  uint64_t second = rng_.NextBounded(3600);
  int64_t t = static_cast<int64_t>(kGowallaT0) +
              static_cast<int64_t>((day * 24 + hour) * 3600 + second);

  // Location popularity is heavy-tailed: a few hot venues absorb most
  // check-ins (approximate Zipf via an inverse-power transform).
  double u = rng_.NextDoubleOpenLow();
  int64_t loc = static_cast<int64_t>(1300000.0 * std::pow(u, 2.2));

  char buf[96];
  int n = std::snprintf(buf, sizeof(buf), "%lld,%lld,%lld",
                        static_cast<long long>(user),
                        static_cast<long long>(t),
                        static_cast<long long>(loc));
  return std::string(buf, static_cast<size_t>(n));
}

Result<std::unique_ptr<LineGenerator>> MakeGenerator(const DatasetSpec& spec,
                                                     uint64_t seed) {
  if (spec.name == "nasa") {
    return std::unique_ptr<LineGenerator>(new NasaLogGenerator(seed));
  }
  if (spec.name == "gowalla") {
    return std::unique_ptr<LineGenerator>(new GowallaGenerator(seed));
  }
  return Status::NotFound("no generator for dataset " + spec.name);
}

}  // namespace record
}  // namespace fresque
