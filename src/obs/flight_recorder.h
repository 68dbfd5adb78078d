#ifndef RICD_OBS_FLIGHT_RECORDER_H_
#define RICD_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ricd::obs {

/// Categories of serve-plane events worth keeping for a post-mortem.
enum class FlightEventKind : uint32_t {
  kNone = 0,
  kPublish = 1,             // a = epoch, b = flagged users
  kRebuild = 2,             // a = epoch, b = table rows
  kDriftTrigger = 3,        // a = region edges since rebuild, b = threshold x1000
  kBackpressure = 4,        // a = queue capacity, b = rejected total
  kValidatorViolation = 5,  // a = violation count, b = 0
  kRequestTrace = 6,        // a = request id, b = latency micros
  kShutdown = 7,            // a = final epoch, b = applied records
  kSegmentSeal = 8,         // a = segment seq, b = segment rows
  kSegmentEvict = 9,        // a = segment seq, b = segment rows
  kRebuildOverlap = 10,     // a = epoch, b = delta rows replayed at adoption
};

/// Human-readable tag for a kind ("publish", "rebuild", ...). Returns a
/// pointer to a string literal, so it is safe to call from a signal handler.
const char* FlightEventKindName(FlightEventKind kind) noexcept;

/// One recorded event. `detail` is a short NUL-padded annotation (span name,
/// violation summary); it is truncated, never allocated.
struct FlightEvent {
  uint64_t seq = 0;            // global ticket, monotonically increasing
  uint64_t timestamp_micros = 0;  // steady-clock micros since recorder start
  FlightEventKind kind = FlightEventKind::kNone;
  uint64_t a = 0;
  uint64_t b = 0;
  char detail[24] = {};
};

/// Fixed-size lock-free multi-writer ring of FlightEvents.
///
/// Writers claim a global ticket with one fetch_add, then claim slot
/// `ticket % capacity` with a lap-aware CAS on its per-slot sequence
/// marker (Vyukov's per-cell sequence, as in serve/ingest_queue): the CAS
/// succeeds only while the slot is idle and holds an older ticket, and it
/// moves the marker to "busy with this ticket". The claimant then stores
/// the payload (all plain atomics, relaxed) and release-stores the marker
/// to "published with this ticket". A writer that finds the slot busy, or
/// already holding a newer ticket (it was lapped), skips the slot and
/// counts the event in dropped(); it never touches a write in progress, so
/// at most one writer owns a slot at a time. Markers only grow, so a reader
/// that acquire-loads a published marker, copies the payload and re-checks
/// an unchanged marker has seen exactly one event. Nothing blocks: a
/// stalled reader can at worst drop slots that were rewritten while it was
/// copying, which is the intended semantics of a flight recorder.
///
/// All payload fields are atomics accessed relaxed, so a torn read of a
/// slot being concurrently rewritten is detected by the marker re-check
/// rather than being a data race — this is what keeps TSan quiet.
class FlightRecorder {
 public:
  /// capacity must be a power of two; 1024 events ≈ 72 KiB.
  explicit FlightRecorder(size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder. Intentionally leaked, like MetricsRegistry.
  static FlightRecorder& Global();

  /// Records an event. Lock-free; safe from any thread. No-op while
  /// disabled.
  void Record(FlightEventKind kind, uint64_t a, uint64_t b,
              const char* detail = nullptr) noexcept;

  /// Copies out surviving events, oldest first. Best effort under
  /// concurrent writes: slots overwritten mid-copy are dropped.
  std::vector<FlightEvent> Dump() const;

  /// Renders Dump() as `# flight <seq> <micros> <kind> a=<a> b=<b> <detail>`
  /// lines (at most `max_events` newest events), the format appended to the
  /// METRICS exposition body.
  std::string DumpText(size_t max_events = 32) const;

  /// Async-signal-safe dump to a file descriptor via write(2) only: no
  /// allocation, no locks, no stdio. Used by the crash handler installed
  /// with InstallCrashDump().
  void DumpToFd(int fd) const noexcept;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);  // order: advisory on/off flag; stale reads only delay the toggle
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);  // order: advisory flag read; exactness not required
  }

  /// Total events ever recorded (including overwritten and dropped ones).
  uint64_t total_recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);  // order: monotonic stat; readers tolerate a slightly stale count
  }

  /// Events whose writer skipped its slot: lapped by a newer ticket, or the
  /// slot was busy with another write.
  uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);  // order: monotonic stat; readers tolerate a slightly stale count
  }

  size_t capacity() const noexcept { return slots_.size(); }

 private:
  // Marker protocol: kEmpty = never written; 2 * ticket + 1 = the writer
  // holding `ticket` is mid-store; 2 * ticket + 2 = the event of `ticket`
  // is published. Either way (marker - 1) / 2 is the slot's ticket, and a
  // slot's marker only ever increases.
  static constexpr uint64_t kEmpty = 0;
  static uint64_t BusyMarker(uint64_t ticket) noexcept { return 2 * ticket + 1; }
  static uint64_t PublishedMarker(uint64_t ticket) noexcept {
    return 2 * ticket + 2;
  }
  static bool IsBusy(uint64_t marker) noexcept { return (marker & 1) != 0; }
  static uint64_t TicketOf(uint64_t marker) noexcept { return (marker - 1) / 2; }

  struct alignas(64) Slot {
    std::atomic<uint64_t> marker{kEmpty};
    std::atomic<uint64_t> timestamp_micros{0};
    std::atomic<uint32_t> kind{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    // detail packed as three little-endian words so the payload stays
    // all-atomic (see class comment).
    std::array<std::atomic<uint64_t>, 3> detail_words{};
  };

  // Returns true if the slot held a stable event, copied into *out.
  bool ReadSlot(const Slot& slot, FlightEvent* out) const noexcept;

  uint64_t NowMicros() const noexcept;

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  uint64_t start_micros_;  // steady-clock origin, set once in the ctor
};

/// Installs SIGABRT/SIGSEGV handlers (SA_RESETHAND) that dump the global
/// flight recorder to stderr and re-raise. Idempotent.
void InstallCrashDump();

}  // namespace ricd::obs

#endif  // RICD_OBS_FLIGHT_RECORDER_H_
