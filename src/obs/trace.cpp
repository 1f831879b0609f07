#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace pelican::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
std::atomic<bool> g_span_tracking_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

// All timestamps are nanoseconds since the first clock read in this
// process, so ts values are small and positive in the JSON.
std::int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

struct Event {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  int tid = 0;
  char ph = 'X';                 // 'X' span, 's'/'t'/'f' flow point
  std::uint64_t flow_id = 0;     // flow events only
  const char* category = nullptr;
  char name[detail::kSpanNameCap];
};

struct Buffer {
  std::mutex mu;
  std::vector<Event> events;
  std::uint64_t dropped = 0;
  std::size_t capacity = 0;
  int tid = 0;
};

struct Tracer {
  std::mutex mu;
  // shared_ptr: the registry keeps a buffer alive after its thread
  // exits so the final WriteTraceJson still sees those events.
  std::vector<std::shared_ptr<Buffer>> buffers;
  std::atomic<int> next_tid{1};
  std::atomic<std::size_t> capacity{std::size_t{1} << 20};
};

Tracer& GlobalTracer() {
  // Leaked for the same reason as Registry::Global().
  static Tracer* tracer = new Tracer();
  return *tracer;
}

thread_local std::shared_ptr<Buffer> t_buffer;
thread_local int t_tid = 0;

Buffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    Tracer& tracer = GlobalTracer();
    auto buffer = std::make_shared<Buffer>();
    buffer->tid = CurrentThreadId();
    buffer->capacity = tracer.capacity.load(std::memory_order_relaxed);
    buffer->events.reserve(std::min<std::size_t>(1024, buffer->capacity));
    std::lock_guard lock(tracer.mu);
    tracer.buffers.push_back(buffer);
    t_buffer = std::move(buffer);
  }
  return *t_buffer;
}

// Counts one buffer-overflow drop. The metric handle is registered on
// the first drop that happens with metrics enabled, so a process that
// never drops (or never scrapes) registers nothing extra here;
// UpdateProcessMetrics also registers the series eagerly so scrapers
// see an explicit 0 before the first overflow.
void NoteDrop(Buffer& buffer) {
  ++buffer.dropped;
  if (MetricsEnabled()) {
    static Counter dropped = Registry::Global().GetCounter(
        "pelican_trace_dropped_total",
        "Trace events dropped by per-thread buffer overflow");
    dropped.Inc();
  }
}

}  // namespace

int CurrentThreadId() {
  if (t_tid == 0) {
    t_tid = GlobalTracer().next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_tid;
}

void EnableTracing(bool on) {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Span-path interning.
//
// A path is a chain of (parent path, span name) nodes; id 0 is the
// empty root. Nodes are append-only for the process lifetime — sample
// rings hold bare ids, so an id must never be invalidated. The global
// table is mutex-guarded but fronted by a per-thread direct-mapped
// cache, so a steady-state training loop interns each distinct
// (parent, name) pair once and then pushes spans without any lock.

namespace {

struct SpanPathNode {
  std::uint32_t parent = 0;
  char name[detail::kSpanNameCap] = {};
};

struct SpanPathTable {
  std::mutex mu;
  std::vector<SpanPathNode> nodes;  // nodes[0] = root (unused)
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
};

// Bounds intern-table memory: once hit, deeper spans reuse the parent
// path (attribution degrades gracefully instead of growing unbounded).
constexpr std::size_t kMaxSpanPaths = std::size_t{1} << 16;

SpanPathTable& GlobalSpanPaths() {
  static SpanPathTable* table = [] {
    auto* t = new SpanPathTable();
    t->nodes.emplace_back();
    return t;
  }();
  return *table;
}

std::uint64_t SpanPathHash(std::uint32_t parent, const char* name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (int i = 0; i < 4; ++i) {
    h = (h ^ ((parent >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
  for (const char* p = name; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ULL;
  }
  return h;
}

struct PathCacheEntry {
  std::uint32_t parent = 0;
  std::uint32_t id = 0;  // 0 = empty slot
  char name[detail::kSpanNameCap] = {};
};
constexpr std::size_t kPathCacheSlots = 256;
thread_local PathCacheEntry t_path_cache[kPathCacheSlots];

// The slot the signal handler reads. thread_local atomics get stable
// addresses for the thread's lifetime; ThreadSpanPathSlot() hands that
// address to the profiler at registration time (normal context), so
// the handler itself never triggers lazy TLS initialization.
thread_local std::atomic<std::uint32_t> t_span_path{0};

// Writes the first kSpanNameCap - 1 bytes of `name` into a span-name
// slot and zero-fills the rest, so the slot is always terminated.
void CopySpanName(char (&dst)[detail::kSpanNameCap], const char* name) {
  const std::size_t n = ::strnlen(name, detail::kSpanNameCap - 1);
  std::memcpy(dst, name, n);
  std::memset(dst + n, 0, detail::kSpanNameCap - n);
}

std::uint32_t InternSpanPath(std::uint32_t parent, const char* name) {
  const std::uint64_t hash = SpanPathHash(parent, name);
  PathCacheEntry& slot = t_path_cache[hash & (kPathCacheSlots - 1)];
  if (slot.id != 0 && slot.parent == parent &&
      std::strncmp(slot.name, name, detail::kSpanNameCap) == 0) {
    return slot.id;
  }
  SpanPathTable& table = GlobalSpanPaths();
  std::uint32_t id = 0;
  {
    std::lock_guard lock(table.mu);
    for (std::uint32_t candidate : table.index[hash]) {
      const SpanPathNode& node = table.nodes[candidate];
      if (node.parent == parent &&
          std::strncmp(node.name, name, detail::kSpanNameCap) == 0) {
        id = candidate;
        break;
      }
    }
    if (id == 0) {
      if (table.nodes.size() >= kMaxSpanPaths) {
        return parent;  // table full: attribute to the enclosing path
      }
      id = static_cast<std::uint32_t>(table.nodes.size());
      SpanPathNode& node = table.nodes.emplace_back();
      node.parent = parent;
      CopySpanName(node.name, name);
      table.index[hash].push_back(id);
    }
  }
  slot.parent = parent;
  slot.id = id;
  CopySpanName(slot.name, name);
  return id;
}

}  // namespace

void EnableSpanTracking(bool on) {
  detail::g_span_tracking_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t CurrentSpanPathId() {
  return t_span_path.load(std::memory_order_relaxed);
}

std::atomic<std::uint32_t>* ThreadSpanPathSlot() { return &t_span_path; }

std::vector<std::string> SpanPathComponents(std::uint32_t id) {
  std::vector<std::string> out;
  SpanPathTable& table = GlobalSpanPaths();
  std::lock_guard lock(table.mu);
  // Walk leaf → root; a corrupt id (never handed out) renders empty.
  std::size_t guard = 0;
  while (id != 0 && id < table.nodes.size() && guard++ < 64) {
    out.emplace_back(table.nodes[id].name);
    id = table.nodes[id].parent;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string SpanPathString(std::uint32_t id) {
  std::string out;
  for (const std::string& part : SpanPathComponents(id)) {
    if (!out.empty()) out += " > ";
    out += part;
  }
  return out;
}

namespace {
std::atomic<bool> g_kernel_tracing{true};
}  // namespace

void EnableKernelTracing(bool on) {
  g_kernel_tracing.store(on, std::memory_order_relaxed);
}

bool KernelTracingEnabled() {
  return g_kernel_tracing.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(std::string_view name, const char* category) {
  const bool tracking = SpanTrackingEnabled();
  bool tracing = TracingEnabled();
  if (!tracing && !tracking) return;
  if (tracing && !g_kernel_tracing.load(std::memory_order_relaxed) &&
      std::strcmp(category, "kernel") == 0) {
    // Kernel spans stay on the span path even when their trace events
    // are gated off — the profiler wants "serve score > conv1d_gemm"
    // attribution precisely where per-event tracing is too expensive.
    tracing = false;
  }
  const std::size_t n =
      std::min(name.size(), detail::kSpanNameCap - 1);
  std::memcpy(name_, name.data(), n);
  name_[n] = '\0';
  if (tracking) {
    prev_path_ = t_span_path.load(std::memory_order_relaxed);
    t_span_path.store(InternSpanPath(prev_path_, name_),
                      std::memory_order_relaxed);
    tracked_ = true;
  }
  if (!tracing) return;
  active_ = true;
  category_ = category;
  start_ns_ = NowNs();
}

TraceSpan::~TraceSpan() {
  if (tracked_) {
    t_span_path.store(prev_path_, std::memory_order_relaxed);
  }
  if (!active_) return;
  const std::int64_t end_ns = NowNs();
  Buffer& buffer = LocalBuffer();
  std::lock_guard lock(buffer.mu);  // uncontended except during a write
  if (buffer.events.size() >= buffer.capacity) {
    NoteDrop(buffer);
    return;
  }
  Event& e = buffer.events.emplace_back();
  e.start_ns = start_ns_;
  e.dur_ns = end_ns - start_ns_;
  e.tid = buffer.tid;
  e.category = category_;
  std::memcpy(e.name, name_, detail::kSpanNameCap);
}

void TraceFlow(FlowPhase phase, std::uint64_t flow_id, std::string_view name,
               const char* category) {
  if (!TracingEnabled()) return;
  const std::int64_t now_ns = NowNs();
  Buffer& buffer = LocalBuffer();
  std::lock_guard lock(buffer.mu);
  if (buffer.events.size() >= buffer.capacity) {
    NoteDrop(buffer);
    return;
  }
  Event& e = buffer.events.emplace_back();
  e.start_ns = now_ns;
  e.tid = buffer.tid;
  e.ph = phase == FlowPhase::kStart ? 's'
                                    : phase == FlowPhase::kStep ? 't' : 'f';
  e.flow_id = flow_id;
  e.category = category;
  const std::size_t n = std::min(name.size(), detail::kSpanNameCap - 1);
  std::memcpy(e.name, name.data(), n);
  e.name[n] = '\0';
}

std::string TraceJson() {
  Tracer& tracer = GlobalTracer();
  std::vector<Event> events;
  std::vector<int> tids;
  {
    std::lock_guard lock(tracer.mu);
    for (const auto& buffer : tracer.buffers) {
      std::lock_guard buffer_lock(buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
      if (!buffer->events.empty()) tids.push_back(buffer->tid);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.start_ns < b.start_ns;
                   });

  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  char line[512];
  for (int tid : tids) {
    std::snprintf(line, sizeof line,
                  "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %d, "
                  "\"name\": \"thread_name\", "
                  "\"args\": {\"name\": \"pelican-%d\"}}",
                  first ? "" : ",\n", tid, tid);
    first = false;
    out += line;
  }
  for (const Event& e : events) {
    if (e.ph == 'X') {
      std::snprintf(line, sizeof line,
                    "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"cat\": \"%s\", "
                    "\"name\": \"%s\"}",
                    first ? "" : ",\n", e.tid,
                    static_cast<double>(e.start_ns) / 1e3,
                    static_cast<double>(e.dur_ns) / 1e3,
                    e.category != nullptr ? e.category : "",
                    Json::Escape(e.name).c_str());
    } else {
      // Flow point. The end gets "bp":"e" (bind to enclosing slice) so
      // the arrow terminates inside the reply span, not after it.
      std::snprintf(line, sizeof line,
                    "%s{\"ph\": \"%c\", \"pid\": 1, \"tid\": %d, "
                    "\"ts\": %.3f, \"cat\": \"%s\", \"name\": \"%s\", "
                    "\"id\": \"0x%llx\"%s}",
                    first ? "" : ",\n", e.ph, e.tid,
                    static_cast<double>(e.start_ns) / 1e3,
                    e.category != nullptr ? e.category : "",
                    Json::Escape(e.name).c_str(),
                    static_cast<unsigned long long>(e.flow_id),
                    e.ph == 'f' ? ", \"bp\": \"e\"" : "");
    }
    first = false;
    out += line;
  }
  out += "\n]}\n";
  return out;
}

bool WriteTraceJson(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) return false;
  out << TraceJson();
  out.flush();
  return out.good();
}

std::size_t TraceEventCount() {
  Tracer& tracer = GlobalTracer();
  std::lock_guard lock(tracer.mu);
  std::size_t n = 0;
  for (const auto& buffer : tracer.buffers) {
    std::lock_guard buffer_lock(buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

std::uint64_t TraceDroppedCount() {
  Tracer& tracer = GlobalTracer();
  std::lock_guard lock(tracer.mu);
  std::uint64_t n = 0;
  for (const auto& buffer : tracer.buffers) {
    std::lock_guard buffer_lock(buffer->mu);
    n += buffer->dropped;
  }
  return n;
}

void ResetTrace() {
  Tracer& tracer = GlobalTracer();
  std::lock_guard lock(tracer.mu);
  for (const auto& buffer : tracer.buffers) {
    std::lock_guard buffer_lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

void SetTraceCapacity(std::size_t max_events_per_thread) {
  GlobalTracer().capacity.store(max_events_per_thread,
                                std::memory_order_relaxed);
}

}  // namespace pelican::obs
