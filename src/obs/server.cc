#include "obs/server.h"

#include <utility>

#include "obs/flight.h"
#include "obs/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace obs {

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<std::pair<std::string, uint16_t>> ParseObsAddr(
    const std::string& addr) {
  if (addr.empty()) return Status::InvalidArgument("empty obs address");
  std::string host = "127.0.0.1";
  std::string port_str;
  const size_t colon = addr.rfind(':');
  if (colon != std::string::npos) {
    host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
    if (host.empty()) host = "127.0.0.1";
  } else if (addr.find_first_not_of("0123456789") == std::string::npos) {
    port_str = addr;  // bare port on localhost
  } else {
    host = addr;                // bare host, ephemeral port
    port_str.push_back('0');    // (plain assignment trips gcc-12 -Wrestrict)
  }
  if (port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos ||
      port_str.size() > 5) {
    return Status::InvalidArgument("unparseable obs port in: " + addr);
  }
  const unsigned long port = std::stoul(port_str);
  if (port > 65535) {
    return Status::InvalidArgument("obs port out of range in: " + addr);
  }
  return std::make_pair(host, static_cast<uint16_t>(port));
}

ObsServer::ObsServer(ObsServerOptions options)
    : options_(std::move(options)), sampler_(options_.sample_interval_ms) {}

ObsServer::~ObsServer() { Stop(); }

Status ObsServer::Start() {
  http_.Handle("/metrics", [this](const std::string&) { return ServeMetrics(); });
  http_.Handle("/healthz", [this](const std::string&) { return ServeHealthz(); });
  http_.Handle("/readyz", [this](const std::string&) { return ServeReadyz(); });
  http_.Handle("/statusz", [this](const std::string&) { return ServeStatusz(); });
  http_.Handle("/flightz", [this](const std::string&) { return ServeFlightz(); });
  started_ns_ = telemetry::NowNanos();
  FRESQUE_RETURN_NOT_OK(http_.Start(options_.host, options_.port));
  SetE2eSamplingActive(true);
  sampler_.Start();
  FRESQUE_FLIGHT_EVENT(kObs, "obs server started", http_.port(), 0, 0);
  return Status::OK();
}

void ObsServer::Stop() {
  if (!http_.running()) return;
  FRESQUE_FLIGHT_EVENT(kObs, "obs server stopping",
                       static_cast<int64_t>(http_.requests()), 0, 0);
  SetE2eSamplingActive(false);
  sampler_.Stop();
  http_.Stop();
}

HttpResponse ObsServer::ServeMetrics() {
  FRESQUE_COUNTER_ADD("obs.scrapes", 1);
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  telemetry::MetricsSnapshot snap = telemetry::Registry::Global()->Snapshot();
  if (options_.append_metrics) options_.append_metrics(&snap);
  resp.body = telemetry::ToPrometheusText(snap);
  return resp;
}

HttpResponse ObsServer::ServeHealthz() {
  HttpResponse resp;
  resp.body = "ok\n";
  return resp;
}

HttpResponse ObsServer::ServeReadyz() {
  HttpResponse resp;
  const bool ready = options_.ready_source ? options_.ready_source() : true;
  if (ready) {
    resp.body = "ready\n";
  } else {
    resp.status = 503;
    resp.body = "not ready\n";
  }
  return resp;
}

HttpResponse ObsServer::ServeStatusz() {
  StatusSnapshot snap;
  if (options_.status_source) snap = options_.status_source();

  std::string b;
  b.reserve(1024);
  b += "{\"build\":{\"compiler\":";
  AppendJsonString(__VERSION__, &b);
  b += '}';
  b += ",\"uptime_ms\":" +
       std::to_string((telemetry::NowNanos() - started_ns_) / 1000000);
  b += ",\"view_epoch\":" + std::to_string(snap.view_epoch);
  b += ",\"publications\":" + std::to_string(snap.publications);
  b += ",\"open_publication\":" + std::to_string(snap.open_publication);
  b += ",\"total_records\":" + std::to_string(snap.total_records);
  b += ",\"wal\":{\"frames\":" + std::to_string(snap.wal_frames);
  b += ",\"bytes\":" + std::to_string(snap.wal_bytes);
  b += ",\"segments\":" + std::to_string(snap.wal_segments);
  b += ",\"snapshots_written\":" + std::to_string(snap.snapshots_written);
  b += ",\"last_snapshot_millis\":" +
       std::to_string(snap.last_snapshot_millis) + '}';
  b += ",\"slo\":{\"e2e_target_ns\":" + std::to_string(SloE2eTargetNs());
  b += ",\"sampling_active\":";
  b += E2eSamplingActive() ? "true" : "false";
  b += '}';
  b += ",\"nodes\":[";
  bool first = true;
  for (const StatusSnapshot::Node& n : snap.nodes) {
    if (!first) b += ',';
    first = false;
    b += "{\"name\":";
    AppendJsonString(n.name, &b);
    b += ",\"queue_depth\":" + std::to_string(n.queue_depth);
    b += ",\"queue_capacity\":" + std::to_string(n.queue_capacity);
    b += ",\"high_watermark\":" + std::to_string(n.high_watermark);
    b += ",\"processed\":" + std::to_string(n.processed) + '}';
  }
  b += "],\"shards\":[";
  first = true;
  for (const StatusSnapshot::Shard& s : snap.shards) {
    if (!first) b += ',';
    first = false;
    b += "{\"shard\":" + std::to_string(s.shard);
    b += ",\"routed\":" + std::to_string(s.routed);
    b += ",\"ingress_depth\":" + std::to_string(s.ingress_depth);
    b += ",\"ingress_capacity\":" + std::to_string(s.ingress_capacity);
    b += ",\"ingress_watermark\":" + std::to_string(s.ingress_watermark);
    b += ",\"view_epoch\":" + std::to_string(s.view_epoch);
    b += ",\"publications\":" + std::to_string(s.publications);
    b += ",\"records\":" + std::to_string(s.records) + '}';
  }
  b += "]}";

  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(b);
  return resp;
}

HttpResponse ObsServer::ServeFlightz() {
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = FlightRecorder::Global()->DumpJson();
  return resp;
}

}  // namespace obs
}  // namespace fresque
