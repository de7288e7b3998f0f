// The flight recorder (src/obs/recorder.h): Chrome trace-event schema,
// per-thread timestamp monotonicity, overflow accounting, a golden-file
// check of the drained op sequence, and enable/disable safety.
//
// Every test brackets its work with Drain (which clears all rings) so rings
// filled by other tests in this binary don't leak in.

#include "src/obs/recorder.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "src/threads/threads.h"

#ifndef TAOS_TESTS_GOLDEN_DIR
#define TAOS_TESTS_GOLDEN_DIR "tests/golden"
#endif

namespace taos {
namespace {

using obs::json::Parse;
using obs::json::Value;

void ClearRings() {
  obs::SetRecorderEnabled(false);
  (void)obs::DrainChromeTraceJson();
}

// Parses a drained trace and schema-checks it: top-level object with a
// traceEvents array and otherData.dropped_events; every "X" event carries a
// known op name, numeric ts/dur/pid/tid, and args.obj; every flow record
// ("s" start / "f" finish, emitted for wakeup-causality edges) carries a
// numeric flow id.
Value ParseAndCheckSchema(const std::string& text) {
  std::string error;
  std::optional<Value> doc = Parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  if (!doc) {
    return Value{};
  }
  EXPECT_TRUE(doc->IsObject());
  const Value* events = doc->Find("traceEvents");
  EXPECT_TRUE(events != nullptr && events->IsArray());
  if (events == nullptr || !events->IsArray()) {
    return Value{};
  }
  const Value* other = doc->Find("otherData");
  const Value* dropped =
      other != nullptr ? other->Find("dropped_events") : nullptr;
  EXPECT_TRUE(dropped != nullptr && dropped->IsNumber());
  for (const Value& e : events->array) {
    EXPECT_TRUE(e.IsObject());
    const Value* ph = e.Find("ph");
    EXPECT_TRUE(ph != nullptr && ph->IsString());
    if (ph == nullptr || !ph->IsString() || ph->string == "M") {
      continue;  // malformed (already flagged) or thread_name metadata
    }
    if (ph->string == "s" || ph->string == "f") {
      const Value* id = e.Find("id");
      EXPECT_TRUE(id != nullptr && id->IsNumber()) << "flow record sans id";
      for (const char* key : {"ts", "pid", "tid"}) {
        const Value* v = e.Find(key);
        EXPECT_TRUE(v != nullptr && v->IsNumber()) << key;
      }
      continue;
    }
    EXPECT_EQ(ph->string, "X");
    const Value* name = e.Find("name");
    EXPECT_TRUE(name != nullptr && name->IsString());
    if (name != nullptr && name->IsString()) {
      bool known = false;
      for (int op = 0; op < static_cast<int>(obs::Op::kNumOps); ++op) {
        known |= name->string == obs::OpName(static_cast<obs::Op>(op));
      }
      EXPECT_TRUE(known) << "unknown op name: " << name->string;
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      const Value* v = e.Find(key);
      EXPECT_TRUE(v != nullptr && v->IsNumber()) << key;
    }
    const Value* args = e.Find("args");
    EXPECT_TRUE(args != nullptr && args->IsObject());
    const Value* obj = args != nullptr ? args->Find("obj") : nullptr;
    EXPECT_TRUE(obj != nullptr && obj->IsNumber());
  }
  return *std::move(doc);
}

TEST(ObsRecorderTest, DisabledRecordsNothing) {
  ClearRings();
  Mutex m;
  m.Acquire();
  m.Release();
  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  EXPECT_TRUE(events->array.empty());
}

TEST(ObsRecorderTest, ContendedRunDrainsToValidChromeTrace) {
  ClearRings();
  obs::SetRecorderEnabled(true);
  {
    Mutex m;
    Condition cond;
    Semaphore sem;
    std::atomic<bool> stop{false};
    std::vector<Thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.push_back(Thread::Fork([&] {
        for (int i = 0; i < 200; ++i) {
          m.Acquire();
          m.Release();
          sem.P();
          sem.V();
        }
        m.Acquire();
        cond.Signal();  // mix in fast signals
        m.Release();
      }));
    }
    for (Thread& t : threads) {
      t.Join();
    }
    (void)stop;
  }
  obs::SetRecorderEnabled(false);

  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  std::size_t complete = 0;
  for (const Value& e : events->array) {
    complete += e.Find("ph")->string == "X";
  }
  EXPECT_GT(complete, 0u);

  // A second drain sees cleared rings.
  const Value doc2 = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* events2 = doc2.Find("traceEvents");
  ASSERT_TRUE(events2 != nullptr);
  EXPECT_TRUE(events2->array.empty());
}

TEST(ObsRecorderTest, PerThreadTimestampsAreMonotone) {
  ClearRings();
  obs::SetRecorderEnabled(true);
  {
    // Rings belong to host threads, and a Fork that ends before the next
    // one starts lends its host to it: the four meet before they record,
    // so they run on four hosts at once.
    std::atomic<int> arrived{0};
    std::vector<Thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.push_back(Thread::Fork([&arrived] {
        arrived.fetch_add(1);
        while (arrived.load() < 4) {
          std::this_thread::yield();
        }
        Mutex m;
        Semaphore s;
        for (int i = 0; i < 300; ++i) {
          m.Acquire();
          m.Release();
          s.P();
          s.V();
        }
      }));
    }
    for (Thread& t : threads) {
      t.Join();
    }
  }
  obs::SetRecorderEnabled(false);

  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  std::map<double, double> last_ts;  // tid -> latest ts seen
  for (const Value& e : events->array) {
    if (e.Find("ph")->string != "X") {
      continue;
    }
    const double tid = e.Find("tid")->number;
    const double ts = e.Find("ts")->number;
    auto [it, inserted] = last_ts.try_emplace(tid, ts);
    if (!inserted) {
      EXPECT_LE(it->second, ts) << "tid " << tid << " went backwards";
      it->second = ts;
    }
  }
  EXPECT_GE(last_ts.size(), 4u);
}

TEST(ObsRecorderTest, OverflowReportsDroppedEvents) {
  ClearRings();
  obs::SetRecorderEnabled(true);
  Mutex m;
  // Each pair records two events; 4096-slot ring => 3000 pairs overflow it.
  for (int i = 0; i < 3000; ++i) {
    m.Acquire();
    m.Release();
  }
  obs::SetRecorderEnabled(false);
  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* other = doc.Find("otherData");
  const Value* events = doc.Find("traceEvents");
  ASSERT_TRUE(other != nullptr && events != nullptr);
  const double dropped = other->Find("dropped_events")->number;
  EXPECT_GT(dropped, 0.0);
  // Everything written is either drained or accounted dropped. Count "X"
  // samples explicitly: "M" metadata and "s"/"f" flow records are
  // re-renderings, not recorded samples.
  double complete = 0;
  for (const Value& e : events->array) {
    complete += e.Find("ph")->string == "X";
  }
  EXPECT_EQ(dropped + complete, 2 * 3000.0);
  // Per-ring attribution: all of this test's overflow happened on the one
  // recording thread, so dropped_by_ring is a single entry carrying the
  // whole total. (Other rings were drained clean at ClearRings.)
  const Value* by_ring = other->Find("dropped_by_ring");
  ASSERT_TRUE(by_ring != nullptr && by_ring->IsObject());
  double per_ring_sum = 0;
  std::size_t nonzero_rings = 0;
  for (const auto& [tid, count] : by_ring->object) {
    ASSERT_TRUE(count.IsNumber()) << tid;
    per_ring_sum += count.number;
    nonzero_rings += count.number > 0;
  }
  EXPECT_EQ(per_ring_sum, dropped);
  EXPECT_EQ(nonzero_rings, 1u);
}

// SetTraceMetadata pairs ride along in the next drain's otherData, making
// A/B artifacts self-describing; they persist across drains (config, not
// samples).
TEST(ObsRecorderTest, TraceMetadataAppearsInOtherData) {
  ClearRings();
  obs::SetTraceMetadata("lock_backend", "tas");
  obs::SetTraceMetadata("test_key", "one");
  obs::SetTraceMetadata("test_key", "two");  // overwrite wins
  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* other = doc.Find("otherData");
  ASSERT_TRUE(other != nullptr);
  const Value* backend = other->Find("lock_backend");
  ASSERT_TRUE(backend != nullptr && backend->IsString());
  EXPECT_EQ(backend->string, "tas");
  const Value* key = other->Find("test_key");
  ASSERT_TRUE(key != nullptr && key->IsString());
  EXPECT_EQ(key->string, "two");
}

// A real park/unpark handoff drains as a wakeup-causality edge: the waker's
// Unpark and the wakee's ParkResume share a nonzero args.flow, and the
// drain re-renders the pair as Chrome "s"/"f" flow records with that id.
TEST(ObsRecorderTest, UnparkAndParkResumeShareFlowId) {
  ClearRings();
  obs::SetRecorderEnabled(true);
  {
    Mutex m;
    m.Acquire();
    std::atomic<bool> started{false};
    Thread t = Thread::Fork([&] {
      started.store(true, std::memory_order_release);
      m.Acquire();  // parks: the owner sits on the lock for 50 ms
      m.Release();
    });
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    m.Release();  // the handoff: Unpark stamps the flow, the wakee echoes it
    t.Join();
  }
  obs::SetRecorderEnabled(false);

  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  std::map<double, int> unpark_flows;   // flow id -> count
  std::map<double, int> resume_flows;
  std::map<double, int> flow_records;   // "s"/"f" ids
  for (const Value& e : events->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "s" || ph == "f") {
      flow_records[e.Find("id")->number]++;
      continue;
    }
    if (ph != "X") {
      continue;
    }
    const Value* flow = e.Find("args")->Find("flow");
    if (flow == nullptr) {
      continue;
    }
    const std::string& name = e.Find("name")->string;
    if (name == "Unpark") {
      unpark_flows[flow->number]++;
    } else if (name == "ParkResume") {
      resume_flows[flow->number]++;
    }
  }
  ASSERT_FALSE(unpark_flows.empty()) << "no flow-stamped Unpark drained";
  // At least one unpark's flow id was echoed by the wakee's resume, and the
  // drain emitted both halves of the Chrome flow arrow for it.
  bool matched = false;
  for (const auto& [flow, n] : unpark_flows) {
    EXPECT_GT(flow, 0.0);
    if (resume_flows.count(flow) != 0) {
      matched = true;
      EXPECT_EQ(flow_records[flow], 2) << "flow " << flow;
    }
  }
  EXPECT_TRUE(matched) << "no Unpark/ParkResume pair shared a flow id";
}

// Golden file: a deterministic single-thread op script drains to a fixed
// sequence of op names (timestamps vary run to run; names and order don't).
TEST(ObsRecorderTest, GoldenOpSequence) {
  ClearRings();
  obs::SetRecorderEnabled(true);
  {
    Mutex m;
    Condition c;
    Semaphore s;
    m.Acquire();
    m.Release();
    s.P();
    s.V();
    c.Signal();
    c.Broadcast();
    m.Acquire();
    s.P();
    s.V();
    m.Release();
  }
  obs::SetRecorderEnabled(false);

  const Value doc = ParseAndCheckSchema(obs::DrainChromeTraceJson());
  const Value* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  std::ostringstream got;
  for (const Value& e : events->array) {
    if (e.Find("ph")->string == "X") {
      got << e.Find("name")->string << "\n";
    }
  }

  const std::string golden_path =
      std::string(TAOS_TESTS_GOLDEN_DIR) + "/obs_trace_ops.golden";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got.str(), want.str());
}

// Toggling the recorder while other threads are mid-operation must be free
// of data races (the enabled flag is a relaxed atomic; events race the
// toggle benignly — they land or they don't). TSan checks this run.
TEST(ObsRecorderTest, ToggleWhileRunningIsSafe) {
  ClearRings();
  std::atomic<bool> stop{false};
  std::vector<Thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.push_back(Thread::Fork([&stop] {
      Mutex m;
      Semaphore s;
      while (!stop.load(std::memory_order_acquire)) {
        m.Acquire();
        m.Release();
        s.P();
        s.V();
      }
    }));
  }
  for (int i = 0; i < 200; ++i) {
    obs::SetRecorderEnabled(i % 2 == 0);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (Thread& t : threads) {
    t.Join();
  }
  obs::SetRecorderEnabled(false);
  ParseAndCheckSchema(obs::DrainChromeTraceJson());
}

}  // namespace
}  // namespace taos
