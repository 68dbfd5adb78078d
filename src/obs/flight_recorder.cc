#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>

namespace ricd::obs {
namespace {

uint64_t SteadyMicros() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Formats v in decimal into buf (no NUL), returning the digit count.
// Async-signal-safe: no allocation, no locale, no stdio.
size_t FormatU64(uint64_t v, char* buf) noexcept {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

// write(2) the whole buffer, ignoring failure: a crash-path dump has no
// recovery story anyway.
void WriteAllFd(int fd, const char* data, size_t size) noexcept {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

const char* FlightEventKindName(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kNone:
      return "none";
    case FlightEventKind::kPublish:
      return "publish";
    case FlightEventKind::kRebuild:
      return "rebuild";
    case FlightEventKind::kDriftTrigger:
      return "drift_trigger";
    case FlightEventKind::kBackpressure:
      return "backpressure";
    case FlightEventKind::kValidatorViolation:
      return "validator_violation";
    case FlightEventKind::kRequestTrace:
      return "request_trace";
    case FlightEventKind::kShutdown:
      return "shutdown";
    case FlightEventKind::kSegmentSeal:
      return "seal";
    case FlightEventKind::kSegmentEvict:
      return "evict";
    case FlightEventKind::kRebuildOverlap:
      return "rebuild_overlap";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(capacity), mask_(capacity - 1), start_micros_(SteadyMicros()) {
  // Power-of-two capacity keeps slot selection a mask. Round up silently
  // rather than crash: the recorder must never take the process down.
  if ((capacity & (capacity - 1)) != 0 || capacity == 0) {
    size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1;
    slots_ = std::vector<Slot>(rounded);
    mask_ = rounded - 1;
  }
}

FlightRecorder& FlightRecorder::Global() {
  // Intentionally leaked: events may be recorded from worker threads during
  // static destruction, and the crash handler reads it at any time.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

uint64_t FlightRecorder::NowMicros() const noexcept {
  return SteadyMicros() - start_micros_;
}

void FlightRecorder::Record(FlightEventKind kind, uint64_t a, uint64_t b,
                            const char* detail) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return;  // order: advisory flag; a racing toggle may record or skip one event
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);  // order: ticket allocation only; slot hand-off syncs via marker acq/rel
  Slot& slot = slots_[ticket & mask_];
  // Lap-aware claim: only an idle slot holding an older ticket may move to
  // "busy with this ticket". Lapped by a newer ticket, or the slot is busy
  // with another write: skip rather than interleave two payloads.
  uint64_t marker = slot.marker.load(std::memory_order_relaxed);  // order: claim hint only; the CAS below re-validates it
  do {
    if (marker != kEmpty && (IsBusy(marker) || TicketOf(marker) > ticket)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // order: monotonic stat counter; no data is published through it
      return;
    }
  } while (!slot.marker.compare_exchange_weak(
      marker, BusyMarker(ticket), std::memory_order_acquire,  // acquire: the previous owner's payload stores happen-before ours
      std::memory_order_relaxed));  // order: failed claim only reloads the marker for the next check
  // Without this fence the busy marker could become visible after the
  // payload stores, and a reader copying a torn payload would pass its
  // unchanged-marker re-check.
  std::atomic_thread_fence(std::memory_order_release);  // order: pins the busy marker before every payload store
  slot.timestamp_micros.store(NowMicros(), std::memory_order_relaxed);  // order: payload; fenced after the busy claim, released by the marker publish
  slot.kind.store(static_cast<uint32_t>(kind), std::memory_order_relaxed);  // order: payload; see timestamp_micros above
  slot.a.store(a, std::memory_order_relaxed);  // order: payload; see timestamp_micros above
  slot.b.store(b, std::memory_order_relaxed);  // order: payload; see timestamp_micros above
  uint64_t words[3] = {0, 0, 0};
  if (detail != nullptr) {
    char packed[24] = {};
    std::strncpy(packed, detail, sizeof(packed) - 1);
    std::memcpy(words, packed, sizeof(packed));
  }
  for (size_t i = 0; i < 3; ++i) {
    slot.detail_words[i].store(words[i], std::memory_order_relaxed);  // order: payload; see timestamp_micros above
  }
  // Publish: readers acquire-load the marker before copying the payload.
  slot.marker.store(PublishedMarker(ticket), std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Slot& slot, FlightEvent* out) const
    noexcept {
  const uint64_t before = slot.marker.load(std::memory_order_acquire);
  if (before == kEmpty || IsBusy(before)) return false;
  FlightEvent ev;
  ev.seq = TicketOf(before);
  ev.timestamp_micros = slot.timestamp_micros.load(std::memory_order_relaxed);  // order: seqlock payload read; fence + marker re-check validate it
  ev.kind = static_cast<FlightEventKind>(
      slot.kind.load(std::memory_order_relaxed));  // order: seqlock payload read; see timestamp load above
  ev.a = slot.a.load(std::memory_order_relaxed);  // order: seqlock payload read; see timestamp load above
  ev.b = slot.b.load(std::memory_order_relaxed);  // order: seqlock payload read; see timestamp load above
  uint64_t words[3];
  for (size_t i = 0; i < 3; ++i) {
    words[i] = slot.detail_words[i].load(std::memory_order_relaxed);  // order: seqlock payload read; see timestamp load above
  }
  std::memcpy(ev.detail, words, sizeof(words));
  ev.detail[sizeof(ev.detail) - 1] = '\0';
  // Acquire again so the payload loads cannot be reordered past the
  // re-check; an unchanged marker means no writer touched the slot while
  // we copied.
  std::atomic_thread_fence(std::memory_order_acquire);  // order: orders the payload loads before the marker re-check below
  if (slot.marker.load(std::memory_order_relaxed) != before) return false;  // order: the acquire fence above upgrades this re-check
  *out = ev;
  return true;
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  std::vector<FlightEvent> events;
  events.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    FlightEvent ev;
    if (ReadSlot(slot, &ev)) events.push_back(ev);
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return events;
}

std::string FlightRecorder::DumpText(size_t max_events) const {
  std::vector<FlightEvent> events = Dump();
  const size_t first =
      events.size() > max_events ? events.size() - max_events : 0;
  std::string out;
  char num[20];
  for (size_t i = first; i < events.size(); ++i) {
    const FlightEvent& ev = events[i];
    out += "# flight ";
    out.append(num, FormatU64(ev.seq, num));
    out += ' ';
    out.append(num, FormatU64(ev.timestamp_micros, num));
    out += ' ';
    out += FlightEventKindName(ev.kind);
    out += " a=";
    out.append(num, FormatU64(ev.a, num));
    out += " b=";
    out.append(num, FormatU64(ev.b, num));
    if (ev.detail[0] != '\0') {
      out += ' ';
      out += ev.detail;
    }
    out += '\n';
  }
  return out;
}

void FlightRecorder::DumpToFd(int fd) const noexcept {
  // Signal-safe variant of DumpText: fixed stack buffers, events emitted in
  // slot order (no sort — ordering is reconstructable from the seq field).
  static constexpr char kHeader[] = "# ricd flight recorder dump\n";
  WriteAllFd(fd, kHeader, sizeof(kHeader) - 1);
  for (const Slot& slot : slots_) {
    FlightEvent ev;
    if (!ReadSlot(slot, &ev)) continue;
    char line[160];
    size_t n = 0;
    const char prefix[] = "# flight ";
    std::memcpy(line + n, prefix, sizeof(prefix) - 1);
    n += sizeof(prefix) - 1;
    n += FormatU64(ev.seq, line + n);
    line[n++] = ' ';
    n += FormatU64(ev.timestamp_micros, line + n);
    line[n++] = ' ';
    const char* kind = FlightEventKindName(ev.kind);
    const size_t kind_len = std::strlen(kind);
    std::memcpy(line + n, kind, kind_len);
    n += kind_len;
    line[n++] = ' ';
    line[n++] = 'a';
    line[n++] = '=';
    n += FormatU64(ev.a, line + n);
    line[n++] = ' ';
    line[n++] = 'b';
    line[n++] = '=';
    n += FormatU64(ev.b, line + n);
    if (ev.detail[0] != '\0') {
      line[n++] = ' ';
      const size_t detail_len = std::strlen(ev.detail);
      std::memcpy(line + n, ev.detail, detail_len);
      n += detail_len;
    }
    line[n++] = '\n';
    WriteAllFd(fd, line, n);
  }
}

namespace {

void CrashDumpHandler(int signo) {
  FlightRecorder::Global().DumpToFd(STDERR_FILENO);
  // SA_RESETHAND restored the default action; re-raise so the process
  // still dies with the original signal (and core dumps still happen).
  ::raise(signo);
}

}  // namespace

void InstallCrashDump() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &CrashDumpHandler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGSEGV, &sa, nullptr);
}

}  // namespace ricd::obs
