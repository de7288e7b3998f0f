// In-memory spans for the traced run.
//
// A span is one call from the benchmark into a layer of the runtime: a name
// "layer.call", start and end on the steady clock, its own id and the id of
// the span that caused it. Every span of one op carries that op's id, and
// the rpc request carries the client's root span id so the worker's spans
// hang under the client's op. Spans are recorded only for sampled ops, into
// a per-thread buffer, and gathered when the phase has ended; nothing is
// written while the workload runs.
//
// Untraced code never reaches this file: the workload loops take tracing as
// a template parameter and use ScopeIf, which compiles to nothing when off.

#ifndef TAOS_PERFBENCH_SPANS_H_
#define TAOS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::spans {

struct Span {
  const char* name = nullptr;  // string literal, "layer.call" or "op"
  std::uint64_t id = 0;        // nonzero, unique in the process
  std::uint64_t parent = 0;    // 0 for an op's root
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

std::uint64_t NowNs();

// Starts recording, keeping at most `cap` spans in total (later ones are
// counted as dropped). Quiescent only.
void Enable(std::size_t cap);
// Stops recording and returns every recorded span, clearing the buffers.
// Only once every other recording thread has been joined (their spans have
// then moved to the retired list); the caller's own are gathered too.
std::vector<Span> Collect(std::uint64_t* dropped);

// Sets the calling thread's current op. Spans are recorded only while
// `sampled` is true; `parent` is the parent of spans opened with no
// enclosing Scope (0 for a root, or a span on another thread).
void SetOp(std::uint64_t op, bool sampled, std::uint64_t parent);

// A fresh span id on the calling thread, for spans emitted after the fact.
std::uint64_t NewId();

// Records a finished span.
void Emit(const char* name, std::uint64_t id, std::uint64_t parent,
          std::uint64_t start_ns, std::uint64_t end_ns);

// Records the enclosed call as a span, parented to the innermost open Scope
// (else the op's parent).
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;  // 0 when the op is not sampled
  std::uint64_t parent_ = 0;
  std::uint64_t start_ = 0;
};

// A Scope in the traced instantiation of a workload loop, and nothing at
// all in the untraced one.
template <bool kOn>
class ScopeIf : public Scope {
 public:
  using Scope::Scope;
};

template <>
class ScopeIf<false> {
 public:
  explicit ScopeIf(const char*) {}
  std::uint64_t id() const { return 0; }
};

// What the spans say, per layer (the text before the first '.') and per
// span name.
struct Analysis {
  std::uint64_t ops = 0;  // root spans
  std::map<std::string, std::vector<double>> durations_ns;  // by span name
  // Self time: a span's duration minus the part of it its children cover
  // (children on any thread, clipped to the span), summed by layer.
  std::map<std::string, double> self_ns;
};

Analysis Analyze(const std::vector<Span>& spans);

// Chrome trace-event JSON (Perfetto opens it): one complete event per span
// (at most `max_spans` of them) plus flow arrows from a parent to its child
// on another thread, and `other_data_json` (an object) as otherData.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::size_t max_spans,
                      const std::string& other_data_json);

}  // namespace perfbench::spans

#endif  // TAOS_PERFBENCH_SPANS_H_
