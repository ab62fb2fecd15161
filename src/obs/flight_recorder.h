#ifndef FRESQUE_OBS_FLIGHT_RECORDER_H_
#define FRESQUE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fresque {
namespace obs {

/// Event categories for the flight recorder. Keep in sync with
/// FlightCategoryName() in flight_recorder.cc.
enum class FlightCategory : uint8_t {
  kLifecycle = 0,    // process / pipeline start, drain, shutdown
  kConfig = 1,       // configuration applied or changed
  kPublication = 2,  // interval open, publish barrier, install or failure
  kShed = 3,         // admission shed state transitions
  kDurability = 4,   // WAL rotation, snapshot written
  kRecovery = 5,     // recovery steps (snapshot load, WAL replay)
  kObs = 6,          // observability plane itself (server start/stop)
};

const char* FlightCategoryName(FlightCategory cat);

/// Crash-safe flight recorder (DESIGN.md §16): a fixed-size lock-free ring
/// of structured events recording the pipeline's recent control-plane
/// history — publication barriers, shed transitions, recovery steps,
/// config changes. Cheap enough to leave on permanently (one fetch_add
/// plus a handful of relaxed stores per event; events are control-plane
/// rate, never per-record).
///
/// Two consumers:
///  - `/flightz` renders the ring as JSON on a live process (DumpJson);
///  - a fatal-signal handler (InstallCrashHandlers) flushes the ring to
///    stderr — and to a dump file when configured — for post-mortems.
///
/// Concurrency model: same discipline as telemetry's TraceSlot ring.
/// Every slot field is an atomic written/read with relaxed ordering; a
/// writer claims a slot with a global fetch_add sequence and publishes
/// the slot's own `seq` last (release). A reader that observes a
/// mismatched seq skips the slot. Torn events are acceptable — this is a
/// diagnostic surface, not a ledger — but every field is individually
/// race-free, so TSan stays clean.
///
/// `msg` MUST be a string literal (or otherwise immortal storage): the
/// ring stores the pointer, and the signal-handler dump reads it at an
/// arbitrary later time, possibly mid-crash. Dynamic args travel in the
/// three integer arg fields instead.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  static constexpr size_t kMinCapacity = 64;
  static constexpr size_t kMaxCapacity = 1u << 20;

  struct Event {
    uint64_t seq = 0;
    int64_t ns = 0;  // monotonic nanoseconds (telemetry::NowNanos)
    FlightCategory cat = FlightCategory::kLifecycle;
    const char* msg = "";
    int64_t a0 = 0;
    int64_t a1 = 0;
    int64_t a2 = 0;
  };

  explicit FlightRecorder(size_t capacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder. First caller wins; capacity can be set before
  /// that with ConfigureGlobalCapacity.
  static FlightRecorder* Global();

  /// Sets the capacity the global recorder will be created with. Returns
  /// false (and changes nothing) if the global instance already exists or
  /// the capacity is out of [kMinCapacity, kMaxCapacity].
  static bool ConfigureGlobalCapacity(size_t capacity);

  /// Records one event. `msg` must be a string literal. Safe from any
  /// thread, never blocks, never allocates.
  void Record(FlightCategory cat, const char* msg, int64_t a0 = 0,
              int64_t a1 = 0, int64_t a2 = 0);

  /// Events ever recorded / overwritten by ring wraparound.
  uint64_t Recorded() const { return next_seq_.load(std::memory_order_relaxed); }
  uint64_t Dropped() const;

  size_t capacity() const { return capacity_; }

  /// Copies the current ring contents, oldest first, skipping slots that
  /// were mid-write. Not async-signal-safe (allocates).
  std::vector<Event> SnapshotEvents() const;

  /// Renders the ring as a JSON document for `/flightz`. Not
  /// async-signal-safe.
  std::string DumpJson() const;

  /// Writes a plain-text dump of the ring to `fd`, oldest first.
  /// Async-signal-safe: only write(2) plus stack formatting — no locks,
  /// no allocation, no stdio.
  void DumpTo(int fd) const;

 private:
  struct Slot {
    // slot seq is 1 + the global sequence of the event it holds; 0 means
    // never written. Published last with release ordering.
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> ns{0};
    std::atomic<uint8_t> cat{0};
    std::atomic<const char*> msg{""};
    std::atomic<int64_t> a0{0};
    std::atomic<int64_t> a1{0};
    std::atomic<int64_t> a2{0};
  };

  const size_t capacity_;
  Slot* slots_;  // owned; raw array so slot count is a runtime value
  std::atomic<uint64_t> next_seq_{0};
};

/// Installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGILL,
/// SIGFPE, SIGTERM) that flush the global flight recorder to stderr —
/// and to `dump_path` when non-empty — then re-raise with the default
/// disposition so exit status / core dumps are unchanged. Idempotent;
/// the first call's dump_path wins.
void InstallCrashHandlers(const std::string& dump_path = "");

}  // namespace obs
}  // namespace fresque

#endif  // FRESQUE_OBS_FLIGHT_RECORDER_H_
