#include "src/model/litmus.h"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/alerted.h"
#include "src/firefly/naive_condition.h"
#include "src/firefly/sync.h"

namespace taos::model {

namespace {

using firefly::Machine;
using firefly::RunResult;

// ---------------------------------------------------------------------------
// Mutual exclusion
// ---------------------------------------------------------------------------

class MutualExclusionTest : public LitmusTest {
 public:
  MutualExclusionTest(int fibers, int iters) : fibers_(fibers), iters_(iters) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    for (int i = 0; i < fibers_; ++i) {
      machine.Fork([this, &machine] {
        for (int k = 0; k < iters_; ++k) {
          mu_->Acquire();
          machine.Step();
          ++in_cs_;
          if (in_cs_ > 1) {
            overlap_ = true;
          }
          machine.Step();
          ++count_;  // the shared update the critical section protects
          machine.Step();
          --in_cs_;
          mu_->Release();
        }
      });
    }
  }

  std::string Verify(const RunResult& result) override {
    if (overlap_) {
      return "two fibers inside the critical section simultaneously";
    }
    if (!result.completed) {
      return "did not complete: " + result.ToString();
    }
    if (count_ != fibers_ * iters_) {
      std::ostringstream os;
      os << "lost updates: " << count_ << " != " << fibers_ * iters_;
      return os.str();
    }
    return "";
  }

 private:
  const int fibers_;
  const int iters_;
  std::unique_ptr<firefly::Mutex> mu_;
  int in_cs_ = 0;
  int count_ = 0;
  bool overlap_ = false;
};

// ---------------------------------------------------------------------------
// Wakeup-waiting race
// ---------------------------------------------------------------------------

class WakeupRaceTest : public LitmusTest {
 public:
  WakeupRaceTest(bool use_eventcount, Tally* tally)
      : use_eventcount_(use_eventcount), tally_(tally) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    cv_->set_use_eventcount(use_eventcount_);
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          while (!flag_) {
            cv_->Wait(*mu_);
            machine.Step();
          }
          mu_->Release();
        },
        /*priority=*/0, "waiter");
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          flag_ = true;
          mu_->Release();
          cv_->Signal();  // after exiting the critical section, as the
                          // paradigm allows
        },
        /*priority=*/0, "signaller");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->absorbed_wakeups += cv_->absorbed_wakeups();
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
    }
    if (!result.completed) {
      return "signal lost, waiter stuck: " + result.ToString();
    }
    return "";
  }

 private:
  const bool use_eventcount_;
  Tally* const tally_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  bool flag_ = false;
};

// Wakeup race, AlertWait flavour.
class AlertWaitWakeupRaceTest : public LitmusTest {
 public:
  explicit AlertWaitWakeupRaceTest(bool use_eventcount)
      : use_eventcount_(use_eventcount) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    cv_->set_use_eventcount(use_eventcount_);
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          try {
            while (!flag_) {
              firefly::AlertWait(*mu_, *cv_);
              machine.Step();
            }
          } catch (const Alerted&) {
          }
          mu_->Release();
        },
        /*priority=*/0, "waiter");
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          flag_ = true;
          mu_->Release();
          cv_->Signal();
        },
        /*priority=*/0, "signaller");
  }

  std::string Verify(const RunResult& result) override {
    if (!result.completed) {
      return "signal lost, alertable waiter stuck: " + result.ToString();
    }
    return "";
  }

 private:
  const bool use_eventcount_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  bool flag_ = false;
};

// ---------------------------------------------------------------------------
// Broadcast: real condition variable vs the naive semaphore encoding
// ---------------------------------------------------------------------------

template <typename ConditionT>
class BroadcastTestBase : public LitmusTest {
 public:
  explicit BroadcastTestBase(int waiters) : waiters_(waiters) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<ConditionT>(machine);
    for (int i = 0; i < waiters_; ++i) {
      machine.Fork(
          [this, &machine] {
            mu_->Acquire();
            machine.Step();
            while (!flag_) {
              cv_->Wait(*mu_);
              machine.Step();
            }
            ++resumed_;
            mu_->Release();
          },
          /*priority=*/0, "waiter" + std::to_string(i));
    }
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          flag_ = true;
          mu_->Release();
          cv_->Broadcast();
        },
        /*priority=*/0, "broadcaster");
  }

  std::string Verify(const RunResult& result) override {
    if (!result.completed) {
      return "a waiter missed the broadcast: " + result.ToString();
    }
    if (resumed_ != waiters_) {
      std::ostringstream os;
      os << "only " << resumed_ << "/" << waiters_ << " waiters resumed";
      return os.str();
    }
    return "";
  }

 private:
  const int waiters_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<ConditionT> cv_;
  bool flag_ = false;
  int resumed_ = 0;
};

// One waiter + one signaller over the naive condition (must always work —
// "the one bit in the semaphore would cover the wakeup-waiting race").
class NaiveSignalTest : public LitmusTest {
 public:
  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::NaiveCondition>(machine);
    machine.Fork([this, &machine] {
      mu_->Acquire();
      machine.Step();
      while (!flag_) {
        cv_->Wait(*mu_);
        machine.Step();
      }
      mu_->Release();
    });
    machine.Fork([this, &machine] {
      mu_->Acquire();
      machine.Step();
      flag_ = true;
      mu_->Release();
      cv_->Signal();
    });
  }

  std::string Verify(const RunResult& result) override {
    if (!result.completed) {
      return "naive signal lost with a single waiter: " + result.ToString();
    }
    return "";
  }

 private:
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::NaiveCondition> cv_;
  bool flag_ = false;
};

// ---------------------------------------------------------------------------
// AlertWait racing Signal and Alert
// ---------------------------------------------------------------------------

class AlertWaitRaceTest : public LitmusTest {
 public:
  explicit AlertWaitRaceTest(Tally* tally) : tally_(tally) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    firefly::FiberHandle waiter = machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          try {
            while (!flag_) {
              firefly::AlertWait(*mu_, *cv_);
              machine.Step();
            }
            normal_ = true;
            mu_->Release();
          } catch (const Alerted&) {
            // AlertWait reacquired the mutex before raising.
            alerted_ = true;
            mu_->Release();
          }
        },
        /*priority=*/0, "waiter");
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          flag_ = true;
          mu_->Release();
          cv_->Signal();
        },
        /*priority=*/0, "signaller");
    machine.Fork([waiter] { firefly::Alert(waiter); }, /*priority=*/0,
                 "alerter");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->normal_exits += normal_ ? 1 : 0;
      tally_->alerted_exits += alerted_ ? 1 : 0;
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
    }
    if (!result.completed) {
      return "stuck: " + result.ToString();
    }
    if (!normal_ && !alerted_) {
      return "waiter exited neither normally nor via Alerted";
    }
    return "";
  }

 private:
  Tally* const tally_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  bool flag_ = false;
  bool normal_ = false;
  bool alerted_ = false;
};

// ---------------------------------------------------------------------------
// Interrupt-style semaphore handoff
// ---------------------------------------------------------------------------

class SemaphoreHandoffTest : public LitmusTest {
 public:
  void Setup(Machine& machine) override {
    sem_ = std::make_unique<firefly::Semaphore>(machine,
                                                /*initially_available=*/false);
    machine.Fork(
        [this, &machine] {
          data_ = 42;
          machine.Step();
          sem_->V();  // the interrupt routine's unblock
        },
        /*priority=*/0, "device");
    machine.Fork(
        [this, &machine] {
          sem_->P();
          machine.Step();
          observed_ = data_;
        },
        /*priority=*/0, "driver");
  }

  std::string Verify(const RunResult& result) override {
    if (!result.completed) {
      return "handoff stuck: " + result.ToString();
    }
    if (observed_ != 42) {
      return "driver ran before the device's data was ready";
    }
    return "";
  }

 private:
  std::unique_ptr<firefly::Semaphore> sem_;
  int data_ = 0;
  int observed_ = -1;
};

// ---------------------------------------------------------------------------
// AlertP racing V and Alert
// ---------------------------------------------------------------------------

class AlertPRaceTest : public LitmusTest {
 public:
  explicit AlertPRaceTest(Tally* tally) : tally_(tally) {}

  void Setup(Machine& machine) override {
    sem_ = std::make_unique<firefly::Semaphore>(machine,
                                                /*initially_available=*/false);
    firefly::FiberHandle taker = machine.Fork(
        [this] {
          try {
            firefly::AlertP(*sem_);
            normal_ = true;
          } catch (const Alerted&) {
            alerted_ = true;
          }
        },
        /*priority=*/0, "taker");
    machine.Fork([this] { sem_->V(); }, /*priority=*/0, "releaser");
    machine.Fork([taker] { firefly::Alert(taker); }, /*priority=*/0,
                 "alerter");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->normal_exits += normal_ ? 1 : 0;
      tally_->alerted_exits += alerted_ ? 1 : 0;
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
    }
    if (!result.completed) {
      return "AlertP stuck: " + result.ToString();
    }
    if (!normal_ && !alerted_) {
      return "AlertP neither returned nor raised";
    }
    return "";
  }

 private:
  Tally* const tally_;
  std::unique_ptr<firefly::Semaphore> sem_;
  bool normal_ = false;
  bool alerted_ = false;
};

// ---------------------------------------------------------------------------
// The Greg Nelson AlertWait bug path
// ---------------------------------------------------------------------------

class AlertWaitGhostTest : public LitmusTest {
 public:
  explicit AlertWaitGhostTest(Tally* tally) : tally_(tally) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    firefly::FiberHandle waiter = machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          try {
            // A single AlertWait, no predicate loop: any wakeup ends it, so
            // every schedule terminates and both exits occur across the
            // exploration.
            firefly::AlertWait(*mu_, *cv_);
            normal_ = true;
          } catch (const Alerted&) {
            alerted_ = true;
          }
          mu_->Release();
        },
        /*priority=*/0, "waiter");
    machine.Fork([waiter] { firefly::Alert(waiter); }, /*priority=*/0,
                 "alerter");
    machine.Fork(
        [this, &machine] {
          machine.Step();  // choice point: the Signal may land after the
                           // waiter's Alerted exit — the ghost probe
          cv_->Signal();
        },
        /*priority=*/0, "signaller");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->normal_exits += normal_ ? 1 : 0;
      tally_->alerted_exits += alerted_ ? 1 : 0;
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
    }
    if (!result.completed) {
      return "stuck: " + result.ToString();
    }
    if (!normal_ && !alerted_) {
      return "waiter exited neither normally nor via Alerted";
    }
    return "";
  }

 private:
  Tally* const tally_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  bool normal_ = false;
  bool alerted_ = false;
};

// ---------------------------------------------------------------------------
// The AlertP RETURNS/RAISES overlap
// ---------------------------------------------------------------------------

class AlertPOverlapTest : public LitmusTest {
 public:
  explicit AlertPOverlapTest(Tally* tally) : tally_(tally) {}

  void Setup(Machine& machine) override {
    sem_ = std::make_unique<firefly::Semaphore>(machine,
                                                /*initially_available=*/true);
    firefly::FiberHandle taker = machine.Fork(
        [this] {
          try {
            firefly::AlertP(*sem_);
            normal_ = true;
            // An alert still pending after a return means both WHEN clauses
            // held and the implementation chose RETURNS.
            overlap_ = firefly::TestAlert();
          } catch (const Alerted&) {
            alerted_ = true;
          }
        },
        /*priority=*/0, "taker");
    machine.Fork([taker] { firefly::Alert(taker); }, /*priority=*/0,
                 "alerter");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->normal_exits += normal_ ? 1 : 0;
      tally_->alerted_exits += alerted_ ? 1 : 0;
      tally_->returns_with_alert_pending += overlap_ ? 1 : 0;
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
    }
    if (!result.completed) {
      return "AlertP stuck: " + result.ToString();
    }
    if (!normal_ && !alerted_) {
      return "AlertP neither returned nor raised";
    }
    return "";
  }

 private:
  Tally* const tally_;
  std::unique_ptr<firefly::Semaphore> sem_;
  bool normal_ = false;
  bool alerted_ = false;
  bool overlap_ = false;
};

// ---------------------------------------------------------------------------
// One Signal may unblock more than one waiter
// ---------------------------------------------------------------------------

class SignalUnblocksManyTest : public LitmusTest {
 public:
  explicit SignalUnblocksManyTest(Tally* tally) : tally_(tally) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    for (int i = 0; i < 2; ++i) {
      machine.Fork(
          [this, &machine] {
            mu_->Acquire();
            machine.Step();
            if (!flag_) {
              cv_->Wait(*mu_);
            }
            machine.Step();
            ++resumed_;
            mu_->Release();
          },
          /*priority=*/0, "waiter" + std::to_string(i));
    }
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          flag_ = true;
          mu_->Release();
          cv_->Signal();  // exactly one Signal for two waiters
        },
        /*priority=*/0, "signaller");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->multi_unblock_signals += cv_->multi_unblock_signals();
      tally_->absorbed_wakeups += cv_->absorbed_wakeups();
    }
    // The spec promises no liveness: with a single Signal one waiter may
    // stay blocked forever (that is why Broadcast exists). Only safety is
    // checked here; the interesting accounting is in the tally.
    if (result.completed && resumed_ != 2) {
      return "completed but a waiter did not run its epilogue";
    }
    return "";
  }

 private:
  Tally* const tally_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  bool flag_ = false;
  int resumed_ = 0;
};

// A thread's Parker (src/waitq/parker.h) in the model: one permit,
// consumed by Park, which sleeps until an Unpark deposits it. The machine's
// spin-lock guards the sleep/wake pair.
struct ModelParker {
  void Park(Machine& machine) {
    machine.SpinAcquire();
    if (permit) {
      permit = false;
      machine.SpinRelease();
      return;
    }
    firefly::Fiber* self = Machine::Self();
    self->block_kind = firefly::Fiber::BlockKind::kSemaphore;
    sleeper = self;
    machine.DescheduleSelf();  // Unpark's MakeReady hands the permit over
  }

  void Unpark(Machine& machine) {
    machine.SpinAcquire();
    if (sleeper != nullptr) {
      machine.MakeReady(sleeper);
      sleeper = nullptr;
    } else {
      permit = true;
    }
    machine.SpinRelease();
  }

  bool permit = false;
  firefly::Fiber* sleeper = nullptr;
};

// ---------------------------------------------------------------------------
// A timed-out waiter dequeuing itself, racing a release's grant
// ---------------------------------------------------------------------------

// The production Nub's timed lock wait (src/threads/timer.h,
// ParkBlockedUntil), modelled at the granularity of its shared state: the
// mutex's lock bit and waiter queue, each waiter's published blocked state,
// and each waiter's one-permit parker. Code between Step() boundaries is
// atomic, so one step that touches the queue and the blocked states stands
// for a section under the object lock and the record lock.
//
// The releaser holds the mutex; two timed waiters are queued behind it and
// parked. Waiter 0's deadline has passed: its park returns the permit if
// one has landed, and otherwise times out. Waiter 1's deadline lies beyond
// the run, so it sleeps until a release unparks it, and keeps the mutex
// once it has it. A release clears the bit and pops the front waiter,
// clearing its blocked state (one step: the window between the two only
// lets a barging test-and-set in, which the retry paths below cover
// anyway), then deposits the permit after dropping the locks — the window
// in which a timed-out waiter finds itself already dequeued but not yet
// unparked.
class SelfCancelTimeoutTest : public LitmusTest {
 public:
  SelfCancelTimeoutTest(bool safe, Tally* tally) : safe_(safe), tally_(tally) {}

  void Setup(Machine& machine) override {
    // Forked first: on two CPUs it is asleep before the releaser runs.
    machine.Fork(
        [this, &machine] {
          parkers_[1].Park(machine);
          for (;;) {
            machine.Step();  // the retried test-and-set
            if (bit_ == 0) {
              bit_ = 1;
              acquired_[1] = true;
              return;
            }
            // Barged: enqueue and re-test the bit under the object lock.
            machine.Step();
            if (bit_ == 0) {
              continue;  // released meanwhile: back out, retry the TAS
            }
            queue_.push_back(1);
            blocked_[1] = true;
            parkers_[1].Park(machine);
          }
        },
        /*priority=*/0, "sleeping-waiter");
    machine.Fork(
        [this, &machine] {
          machine.Step();  // the park's timed return
          if (parkers_[0].permit) {
            parkers_[0].permit = false;  // the grant landed before the deadline
          } else if (!safe_) {
            // The bug: kTimeout straight from the parker, without
            // re-testing its queue membership under the object lock. A
            // release that already picked this waiter has spent its one
            // wakeup on a thread that is leaving.
            timed_out_ = true;
            return;
          } else {
            machine.Step();  // object lock, then record lock
            if (blocked_[0]) {
              // Still queued: the deadline dequeues this waiter.
              std::erase(queue_, 0);
              blocked_[0] = false;
              self_dequeued_ = true;
            } else {
              // A release dequeued it first and is about to deposit the
              // permit: consume it, then retry the test-and-set below.
              grant_race_ = true;
              parkers_[0].Park(machine);
            }
          }
          machine.Step();  // the retried test-and-set
          if (bit_ == 0) {
            bit_ = 1;
            acquired_[0] = true;
            Release(machine);
            return;
          }
          timed_out_ = true;  // the deadline is behind it: no retry
        },
        /*priority=*/0, "timed-out-waiter");
    machine.Fork([this, &machine] { Release(machine); }, /*priority=*/0,
                 "releaser");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->timeout_self_dequeues += self_dequeued_ ? 1 : 0;
      tally_->timeout_grant_races += grant_race_ ? 1 : 0;
    }
    if (!result.completed) {
      if (bit_ == 0) {
        return "lost wakeup: a waiter sleeps with the mutex free; the "
               "release spent its one wakeup on a waiter that timed out: " +
               result.ToString();
      }
      return "stuck: " + result.ToString();
    }
    if (parkers_[0].permit || parkers_[1].permit) {
      return "stray permit: a grant's permit outlived the wait it was for, "
             "and would end the thread's next park while it is queued";
    }
    if (!acquired_[1]) {
      return "the waiter without a deadline never acquired the mutex";
    }
    if (!queue_.empty() || bit_ != 1) {
      return "the mutex ended with a stale queue entry, or not held by the "
             "waiter that acquired it last";
    }
    if (acquired_[0] == timed_out_) {
      return "the timed-out waiter must end exactly one way";
    }
    return "";
  }

 private:
  // The Nub's Release: clear the bit and dequeue the front waiter under the
  // locks, then unpark it with no lock held.
  void Release(Machine& machine) {
    machine.Step();
    bit_ = 0;
    if (queue_.empty()) {
      return;
    }
    const int w = queue_.front();
    queue_.erase(queue_.begin());
    blocked_[w] = false;
    parkers_[w].Unpark(machine);
  }

  const bool safe_;
  Tally* const tally_;
  int bit_ = 1;                    // held by the releaser
  std::vector<int> queue_{0, 1};   // both waiters queued behind it...
  bool blocked_[2] = {true, true};  // ...with their blocked state published
  ModelParker parkers_[2];
  bool acquired_[2] = {false, false};
  bool timed_out_ = false;  // waiter 0's kTimeout
  bool self_dequeued_ = false;
  bool grant_race_ = false;
};

// ---------------------------------------------------------------------------
// Reader-preference rwlock: safety always, writer starvation tallied
// ---------------------------------------------------------------------------

class RwWriterStarvationTest : public LitmusTest {
 public:
  RwWriterStarvationTest(int readers, int rounds, Tally* tally)
      : readers_(readers), rounds_(rounds), tally_(tally) {}

  void Setup(Machine& machine) override {
    mu_ = std::make_unique<firefly::Mutex>(machine);
    cv_ = std::make_unique<firefly::Condition>(machine);
    for (int i = 0; i < readers_; ++i) {
      machine.Fork(
          [this, &machine] {
            for (int k = 0; k < rounds_; ++k) {
              mu_->Acquire();
              machine.Step();
              // Reader preference: only an ACTIVE writer blocks admission;
              // a waiting one is streamed past (and tallied).
              while (writer_active_) {
                cv_->Wait(*mu_);
                machine.Step();
              }
              ++readers_active_;
              if (writer_waiting_) {
                ++admitted_past_writer_;
              }
              mu_->Release();
              machine.Step();  // the read section, outside mu
              if (writer_in_cs_) {
                overlap_ = true;
              }
              mu_->Acquire();
              machine.Step();
              if (--readers_active_ == 0) {
                cv_->Broadcast();
              }
              mu_->Release();
            }
          },
          /*priority=*/0, "reader" + std::to_string(i));
    }
    machine.Fork(
        [this, &machine] {
          mu_->Acquire();
          machine.Step();
          writer_waiting_ = true;
          while (readers_active_ > 0 || writer_active_) {
            cv_->Wait(*mu_);
            machine.Step();
          }
          writer_waiting_ = false;
          writer_active_ = true;
          mu_->Release();
          machine.Step();  // the write section
          writer_in_cs_ = true;
          if (readers_active_ > 0) {
            overlap_ = true;
          }
          machine.Step();
          writer_in_cs_ = false;
          mu_->Acquire();
          machine.Step();
          writer_active_ = false;
          writer_acquired_ = true;
          cv_->Broadcast();
          mu_->Release();
        },
        /*priority=*/0, "writer");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->readers_admitted_past_writer += admitted_past_writer_;
      tally_->writer_acquisitions += writer_acquired_ ? 1 : 0;
    }
    if (overlap_) {
      return "a writer held the lock while a reader was inside its section";
    }
    if (!result.completed) {
      return "stuck: " + result.ToString();
    }
    if (!writer_acquired_) {
      return "completed but the writer never acquired";
    }
    return "";
  }

 private:
  const int readers_;
  const int rounds_;
  Tally* const tally_;
  std::unique_ptr<firefly::Mutex> mu_;
  std::unique_ptr<firefly::Condition> cv_;
  int readers_active_ = 0;
  std::uint64_t admitted_past_writer_ = 0;
  bool writer_waiting_ = false;
  bool writer_active_ = false;
  bool writer_in_cs_ = false;
  bool writer_acquired_ = false;
  bool overlap_ = false;
};

// ---------------------------------------------------------------------------
// Poll double-grant: two concurrent Sets, one WaitAny, exactly one consume
// ---------------------------------------------------------------------------

// Modelled at the granularity of the protocol's shared words: the two
// auto-reset flags and the waiter's "still parked" state. The scenario is
// loop-free (the waiter performs one registered scan; finding nothing is
// the legal outcome where it would re-park), so DFS exhausts it. The
// property checked is pulse conservation: two Sets were emitted, one
// WaitAny grant can consume at most one, so flags-still-set + grants must
// equal 2 at the end of every schedule.
class PollDoubleGrantTest : public LitmusTest {
 public:
  PollDoubleGrantTest(bool waiter_consumes, Tally* tally)
      : waiter_consumes_(waiter_consumes), tally_(tally) {}

  void Setup(Machine& machine) override {
    auto setter = [this, &machine](bool* flag) {
      machine.Step();
      if (waiter_consumes_) {
        // Notify-only (shipped): publish the flag; the wakeup is a hint.
        *flag = true;
        machine.Step();
        if (parked_) {
          ++notifies_;
        }
      } else {
        // Handoff (buggy): publish, then — if the waiter still looks
        // parked — consume the pulse on its behalf and hand it a grant.
        // The test of parked_ and the consume are separate steps, exactly
        // the window two Sets can both fall into.
        *flag = true;
        machine.Step();
        if (parked_) {
          machine.Step();
          *flag = false;  // consumed for the waiter
          ++handed_;
        }
      }
    };
    machine.Fork([setter, this] { setter(&aflag_); }, /*priority=*/0,
                 "setter-a");
    machine.Fork([setter, this] { setter(&bflag_); }, /*priority=*/0,
                 "setter-b");
    machine.Fork(
        [this, &machine] {
          // One registered scan of a WaitAny round. Claiming unparks.
          machine.Step();
          parked_ = false;
          if (waiter_consumes_) {
            machine.Step();
            if (aflag_) {
              aflag_ = false;  // the waiter's own exchange arbitrates
              ++grants_;
            } else {
              machine.Step();
              if (bflag_) {
                bflag_ = false;
                ++grants_;
              }
            }
          } else {
            machine.Step();
            if (handed_ > 0) {
              ++grants_;  // accepts ONE grant; a second handoff is orphaned
            }
          }
        },
        /*priority=*/0, "waiter");
  }

  std::string Verify(const RunResult& result) override {
    const int remaining = (aflag_ ? 1 : 0) + (bflag_ ? 1 : 0);
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      if (handed_ == 2 || notifies_ == 2) {
        ++tally_->poll_concurrent_sets;  // both Sets raced this one wait
      }
    }
    if (!result.completed) {
      return "stuck: " + result.ToString();
    }
    if (waiter_consumes_) {
      // Two pulses were published; one registered scan consumes at most
      // one; the rest must still be on the flags.
      if (remaining + grants_ != 2) {
        return "pulse conservation violated in the notify-only protocol";
      }
    } else if (handed_ > grants_) {
      // A pulse consumed on the waiter's behalf that the single grant
      // never delivered — in the worst schedule both Sets fall into the
      // window (handed_ == 2) and one WaitAny eats two pulses.
      return "double grant: a Set consumed a pulse for a wait that never "
             "received it; no future waiter can observe that pulse";
    }
    return "";
  }

 private:
  const bool waiter_consumes_;
  Tally* const tally_;
  bool aflag_ = false;
  bool bflag_ = false;
  bool parked_ = true;  // the waiter starts registered and parked
  int notifies_ = 0;
  int handed_ = 0;
  int grants_ = 0;
};

// ---------------------------------------------------------------------------
// Poll deregistration racing an in-flight notification
// ---------------------------------------------------------------------------

// A WaitAny waiter just granted on A deregisters from B exactly as Set(B)
// lands. The model gives Set handoff flavour — a pulse delivered INTO a
// registered cell — because that is the design in which the window exists;
// the cell is one shared word (0 waiting, 1 notified-with-pulse, 2
// cancelled). Safe cancellation is a CAS
// waiting -> cancelled whose loser re-publishes the delivered pulse;
// the buggy variant is the blind store.
class PollDeregLostWakeupTest : public LitmusTest {
 public:
  PollDeregLostWakeupTest(bool safe_cancel, Tally* tally)
      : safe_cancel_(safe_cancel), tally_(tally) {}

  void Setup(Machine& machine) override {
    machine.Fork(
        [this, &machine] {
          // Set(B): deliver into the registered cell, else leave the flag.
          machine.Step();
          if (cell_ == 0) {
            cell_ = 1;  // the pulse now lives in the cell
            delivered_ = true;
          } else {
            bflag_ = true;
          }
        },
        /*priority=*/0, "setter-b");
    machine.Fork(
        [this, &machine] {
          // The granted waiter's deregistration from B.
          machine.Step();
          if (safe_cancel_) {
            if (cell_ == 0) {
              cell_ = 2;  // CAS won: cancelled before any delivery
              cancelled_clean_ = true;
            } else {
              // Lost to the notification: the pulse is in our cell and we
              // no longer want it — put it back where a future waiter can
              // find it.
              lost_to_resume_ = true;
              machine.Step();
              bflag_ = true;
              cell_ = 2;
            }
          } else {
            // The bug: no re-test of the word the decision was based on.
            cell_ = 2;
            cancelled_clean_ = true;
          }
        },
        /*priority=*/0, "granted-waiter");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->poll_dereg_lost_to_resume += lost_to_resume_ ? 1 : 0;
    }
    if (!result.completed) {
      return "stuck: " + result.ToString();
    }
    // Pulse conservation: exactly one Set happened, so the pulse must be
    // observable — on the flag, or still in a live (uncancelled) cell.
    const bool observable = bflag_ || cell_ == 1;
    if (!observable) {
      return "lost wakeup: Set(B) delivered its pulse into the waiter's "
             "cell and the deregistration destroyed it; the next wait on B "
             "blocks forever";
    }
    return "";
  }

 private:
  const bool safe_cancel_;
  Tally* const tally_;
  int cell_ = 0;  // the waiter's registration cell on B: waiting
  bool bflag_ = false;
  bool delivered_ = false;
  bool cancelled_clean_ = false;
  bool lost_to_resume_ = false;
};

// ---------------------------------------------------------------------------
// Alert vs thread exit
// ---------------------------------------------------------------------------

// One thread record, modelled as plain words. The handle the alerter holds
// names the record and id 1, the id of the thread that has exited; its
// Thread is joined, the record released, and the next thread takes it with
// id 2. Alert's lock-compare-set is one step, as it holds the record lock
// throughout.
class AlertExitTest : public LitmusTest {
 public:
  AlertExitTest(RecordReclaim reclaim, Tally* tally)
      : reclaim_(reclaim), tally_(tally) {}

  void Setup(Machine& machine) override {
    machine.Fork(
        [this, &machine] {
          // Join: the last claim on the record is dropped.
          machine.Step();
          if (reclaim_ == RecordReclaim::kFreeOnExit) {
            freed_ = true;
          } else {
            id_ = 0;  // retired; the record goes on the free list
          }
          // The next Thread::Fork takes the record (or the same block).
          machine.Step();
          freed_ = false;
          id_ = 2;
          alerted_ = false;
          // The next thread's TestAlert.
          machine.Step();
          next_saw_alert_ = alerted_;
          alerted_ = false;
        },
        /*priority=*/0, "join-and-reuse");
    machine.Fork(
        [this, &machine] {
          machine.Step();
          if (freed_) {
            touched_freed_ = true;
            return;
          }
          if (reclaim_ != RecordReclaim::kNoIdCheck && id_ != kStaleId) {
            dropped_ = true;
            return;
          }
          if (id_ == kStaleId) {
            on_exited_ = true;
          }
          alerted_ = true;
        },
        /*priority=*/0, "stale-alerter");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->alerts_on_exited += on_exited_ ? 1 : 0;
      tally_->stale_alerts_dropped += dropped_ ? 1 : 0;
    }
    if (!result.completed) {
      return "stuck: " + result.ToString();
    }
    if (touched_freed_) {
      return "use after free: Alert locked a record that its thread's "
             "exit had returned to the allocator";
    }
    if (next_saw_alert_) {
      return "stale alert: Alert through an exited thread's handle alerted "
             "the thread that reused its record";
    }
    return "";
  }

 private:
  static constexpr int kStaleId = 1;

  const RecordReclaim reclaim_;
  Tally* const tally_;
  int id_ = kStaleId;
  bool alerted_ = false;
  bool freed_ = false;
  bool touched_freed_ = false;
  bool next_saw_alert_ = false;
  bool on_exited_ = false;
  bool dropped_ = false;
};

// ---------------------------------------------------------------------------
// A pooled host thread's exit/join handoff
// ---------------------------------------------------------------------------

// Thread::Fork's host pool (src/threads/thread.cc), modelled at the
// granularity of its shared state: the first record's join word and
// claims, the pool's idle slot, the host's parker and the joiner's. Each
// access to the join word is one step, as is each claim drop and each
// pool operation under the pool's lock; a Park or Unpark takes the steps
// of ModelParker. The host starts inside its first Fork's life, with the
// driver about to Join it. The driver then Forks again: it takes the idle
// host if the pool holds it and hands it the new life, else it would start
// a new host, which the model does not follow. The host, handed a life,
// starts it and leaves the scenario; a host still in the pool at the end
// sleeps there, which is how an idle host ends a run, not a deadlock.
class ExitJoinTest : public LitmusTest {
 public:
  ExitJoinTest(ExitHandoff protocol, Tally* tally)
      : protocol_(protocol), tally_(tally) {}

  void Setup(Machine& machine) override {
    machine.Fork([this, &machine] { Host(machine); }, /*priority=*/0, "host");
    machine.Fork([this, &machine] { Driver(machine); }, /*priority=*/0,
                 "driver");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->hosts_reused += host_reused_ ? 1 : 0;
      tally_->joins_without_park += join_without_park_ ? 1 : 0;
    }
    if (claim_after_join_) {
      return "claim after join: Join returned while the host still held "
             "its claim on the record, and the host dropped it after";
    }
    if (!driver_done_) {
      if (exit_unpublished_in_pool_) {
        return "exit unpublished: the host sleeps in the pool before it "
               "publishes the exit its joiner waits for: " +
               result.ToString();
      }
      return "lost wakeup: the joiner sleeps on an exit already "
             "published: " +
             result.ToString();
    }
    if (!result.completed && !(result.stuck_fibers.size() == 1 && idle_)) {
      return "stuck: " + result.ToString();
    }
    if (joiner_park_.permit) {
      return "stray permit: the joiner's parker kept a permit past Join";
    }
    if (claims_ != 0) {
      return "leak: the record kept a claim after its thread was joined";
    }
    return "";
  }

 private:
  enum : int { kRunning = 0, kJoinerIn = 1, kExited = 2 };

  void Host(Machine& machine) {
    machine.Step();  // the life's closure runs and is destroyed
    if (protocol_ == ExitHandoff::kIdleBeforeExited) {
      DropClaim(machine, /*host=*/true);
      exit_unpublished_in_pool_ = true;
      ReturnToPool(machine);
      exit_unpublished_in_pool_ = false;
      Publish(machine);
    } else {
      if (protocol_ == ExitHandoff::kExitedBeforeRelease) {
        Publish(machine);
        DropClaim(machine, /*host=*/true);
      } else {
        DropClaim(machine, /*host=*/true);
        Publish(machine);
      }
      ReturnToPool(machine);
    }
    machine.Step();  // the next life starts
  }

  // Takes the pool's idle slot under its lock and sleeps there until a
  // Fork hands it a life (thread.exited_to_idle is the window before it).
  void ReturnToPool(Machine& machine) {
    machine.Step();
    pooled_ = true;
    idle_ = true;
    host_park_.Park(machine);
    idle_ = false;
  }

  // The exchange that publishes the exit, and the joiner's wake.
  void Publish(Machine& machine) {
    machine.Step();
    const int old = word_;
    word_ = kExited;
    if (old == kJoinerIn) {
      joiner_park_.Unpark(machine);
    }
  }

  void DropClaim(Machine& machine, bool host) {
    machine.Step();
    --claims_;
    claim_after_join_ = claim_after_join_ || (host && joined_);
  }

  void Driver(Machine& machine) {
    machine.Step();  // the CAS; with kJoinWithoutRecheck, a plain read
    if (word_ == kExited) {
      join_without_park_ = true;
    } else if (protocol_ == ExitHandoff::kJoinWithoutRecheck) {
      machine.Step();  // the plain store
      word_ = kJoinerIn;
      joiner_park_.Park(machine);
    } else {
      word_ = kJoinerIn;
      do {
        joiner_park_.Park(machine);
        machine.Step();  // the re-check
      } while (word_ != kExited);
    }
    DropClaim(machine, /*host=*/false);
    joined_ = true;
    machine.Step();  // the next Fork: the pool's lock
    if (pooled_) {
      pooled_ = false;
      host_reused_ = true;
      host_park_.Unpark(machine);
    }
    driver_done_ = true;
  }

  const ExitHandoff protocol_;
  Tally* const tally_;
  int word_ = kRunning;  // the join word: running, a joiner, exited
  int claims_ = 2;       // the thread's and the Thread's
  bool joined_ = false;  // Join has returned
  ModelParker joiner_park_;
  ModelParker host_park_;
  bool pooled_ = false;  // the host is in the pool's idle slot
  bool idle_ = false;    // the host sleeps in the pool
  bool driver_done_ = false;
  bool host_reused_ = false;
  bool join_without_park_ = false;
  bool claim_after_join_ = false;
  bool exit_unpublished_in_pool_ = false;
};

// ---------------------------------------------------------------------------
// Biased readers: publish/re-check against revoke/scan, and the drain wake
// ---------------------------------------------------------------------------

// ReaderWriterMutex's biased reader protocol (src/threads/rwmutex.h),
// modelled at the granularity of its shared state: the bias flag, the
// reader's bitmap bit and slot, whether the draining writer is queued, and
// the writer's parker. Every access the protocol makes seq_cst is its own
// step, and a step under the object lock (the writer's queue-and-re-scan,
// the release's look for a queued drainer) is one step. The drain's spin
// is kSpinScans lock-free re-scans, each ending the spin if the slot is
// clear; the budget's clock is not modelled. One reader and one writer,
// which already holds the writer bit; a reader that finds the flag
// cleared takes the word, the Nub protocol the other litmus tests cover,
// and leaves the scenario.
class BiasedReaderTest : public LitmusTest {
 public:
  BiasedReaderTest(BiasProtocol protocol, Tally* tally)
      : protocol_(protocol), tally_(tally) {}

  void Setup(Machine& machine) override {
    machine.Fork([this, &machine] { Reader(machine); }, /*priority=*/0,
                 "reader");
    machine.Fork([this, &machine] { Writer(machine); }, /*priority=*/0,
                 "writer");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->biased_entries += entered_biased_ ? 1 : 0;
      tally_->bias_backouts += backed_out_ ? 1 : 0;
      tally_->drain_spin_hits += drain_spin_hit_ ? 1 : 0;
      tally_->drain_parks += drain_parked_ ? 1 : 0;
    }
    if (overlap_) {
      return "overlap: a biased reader and the writer were both inside";
    }
    if (!result.completed) {
      return "lost drain wake: the writer sleeps draining a slot the reader "
             "has cleared: " +
             result.ToString();
    }
    if (slot_ || queued_ || parker_.permit) {
      return "the run ended with a slot, a queued drainer or a permit left";
    }
    return "";
  }

 private:
  void Reader(Machine& machine) {
    machine.Step();  // the in-line flag test
    if (!flag_) {
      return;
    }
    if (protocol_ != BiasProtocol::kMarkAfterPublish) {
      machine.Step();  // the bitmap mark, first use only
      marked_ = true;
    }
    machine.Step();  // the slot CAS
    slot_ = true;
    if (protocol_ != BiasProtocol::kNoRecheck) {
      machine.Step();  // the re-read of the flag
      if (!flag_) {
        // Back out: clear the slot, then wake a drainer that saw it.
        backed_out_ = true;
        machine.Step();
        slot_ = false;
        WakeDrainer(machine);
        return;
      }
    }
    if (protocol_ == BiasProtocol::kMarkAfterPublish) {
      machine.Step();
      marked_ = true;
    }
    entered_biased_ = true;
    in_reader_ = true;
    machine.Step();  // the read-side critical section
    overlap_ = overlap_ || in_writer_;
    in_reader_ = false;
    bool revoked;
    if (protocol_ == BiasProtocol::kFlagBeforeClear) {
      machine.Step();
      revoked = !flag_;
      machine.Step();
      slot_ = false;
    } else {
      machine.Step();  // the slot exchange
      slot_ = false;
      machine.Step();  // the flag re-read
      revoked = !flag_;
    }
    if (revoked) {
      WakeDrainer(machine);
    }
  }

  void Writer(Machine& machine) {
    machine.Step();  // clear the flag
    flag_ = false;
    if (Scan(machine)) {
      // The drain's spin: re-scan until the slot is clear or it runs out.
      for (int i = 0; i < kSpinScans; ++i) {
        if (!Scan(machine)) {
          drain_spin_hit_ = true;
          break;
        }
      }
    }
    while (Scan(machine)) {
      // Under the object lock: queue at the front, re-scan. The mark, if
      // the scan saw the slot, is already set and never cleared.
      machine.Step();
      queued_ = true;
      if (!(marked_ && slot_)) {
        queued_ = false;
        break;
      }
      drain_parked_ = true;
      parker_.Park(machine);
    }
    in_writer_ = true;
    machine.Step();  // the critical section
    overlap_ = overlap_ || in_reader_;
    in_writer_ = false;
  }

  // A lock-free scan: the bitmap load, then the marked slot's load. True
  // iff the slot holds the lock.
  bool Scan(Machine& machine) {
    machine.Step();
    if (!marked_) {
      return false;
    }
    machine.Step();
    return slot_;
  }

  // Under the object lock: dequeue a queued drainer, then unpark it with
  // the lock dropped.
  void WakeDrainer(Machine& machine) {
    machine.Step();
    if (!queued_) {
      return;
    }
    queued_ = false;
    parker_.Unpark(machine);
  }

  static constexpr int kSpinScans = 2;

  const BiasProtocol protocol_;
  Tally* const tally_;
  bool flag_ = true;
  bool marked_ = false;
  bool slot_ = false;
  bool queued_ = false;
  ModelParker parker_;
  bool in_reader_ = false;
  bool in_writer_ = false;
  bool overlap_ = false;
  bool entered_biased_ = false;
  bool backed_out_ = false;
  bool drain_spin_hit_ = false;
  bool drain_parked_ = false;
};

// ---------------------------------------------------------------------------
// MessageQueue's readiness without a lock: the ring, readable() and a poller
// ---------------------------------------------------------------------------

// The readable half of MessageQueue's readiness protocol
// (src/threads/message_queue.h), modelled at the granularity of its shared
// state: each cell's sequence number, the head, the tail with its closed
// bit, readable()'s flag, and the consumer's Poll with a resident
// registration — the Poll's latch, the consumer's blocked state and its
// one-permit parker (src/threads/poll.h). Each seq_cst access, and each
// fence-separated load, is its own step; a claim CAS is one step, as is a
// notify under the event and record locks. The producer claims a free cell
// (the scenarios never fill the ring, so writable() is not modelled) and
// the consumer is the only receiver, so its head CAS cannot fail.
//
// A receiver that finds an in-flight Send after Close spins on TryRecv; a
// spin that re-reads unchanged state is a no-op, so the model parks it
// until the producer's publish instead.
class QueueReadinessTest : public LitmusTest {
 public:
  QueueReadinessTest(ReadinessProtocol protocol, int cells, bool close,
                     Tally* tally)
      : protocol_(protocol), cells_(cells), close_(close), tally_(tally) {
    for (int i = 0; i < cells_; ++i) {
      seq_[i] = 2 * static_cast<std::uint64_t>(i);
    }
    if (cells_ == 2) {
      // One item already published at position 0, readable set.
      seq_[0] = 1;
      tail_ = 2;
      flag_ = true;
      items_ = 1;
    }
  }

  void Setup(Machine& machine) override {
    machine.Fork([this, &machine] { Producer(machine); }, /*priority=*/0,
                 "producer");
    machine.Fork([this, &machine] { Consumer(machine); }, /*priority=*/0,
                 "consumer");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->readiness_restores += restored_ ? 1 : 0;
      tally_->sends_refused += refused_ ? 1 : 0;
    }
    const bool item_in_ring = Published(head_);
    if (!result.completed) {
      return std::string("lost readiness: the poller sleeps with readable ") +
             (flag_ ? "set" : "clear") +
             (item_in_ring ? " and an item in the ring: "
                           : " and the ring empty: ") +
             result.ToString();
    }
    if (item_in_ring) {
      return close_ ? "lost readiness: Recv reported closed and drained "
                      "while an accepted item sits in the ring"
                    : "lost readiness: the consumer left an item in the ring";
    }
    if (received_ != items_) {
      return "received " + std::to_string(received_) + " of " +
             std::to_string(items_) + " accepted items";
    }
    return "";
  }

 private:
  enum class Recv { kOk, kWouldBlock, kClosed };

  bool Published(std::uint64_t pos) const {
    return seq_[pos % static_cast<std::uint64_t>(cells_)] == 2 * pos + 1;
  }
  bool Closed() const {
    return protocol_ == ReadinessProtocol::kCloseApartFromTail
               ? closed_flag_
               : (tail_ & 1) != 0;
  }

  void Producer(Machine& machine) {
    if (protocol_ == ReadinessProtocol::kCloseApartFromTail) {
      machine.Step();  // the closed flag, tested before the claim
      if (closed_flag_) {
        refused_ = true;
        return;
      }
    }
    machine.Step();  // the tail CAS, which fails once the closed bit is set
    if ((tail_ & 1) != 0) {
      refused_ = true;
      return;
    }
    const std::uint64_t pos = tail_ >> 1;
    tail_ += 2;
    ++items_;
    bool saw_set = false;
    if (protocol_ == ReadinessProtocol::kFlagBeforePublish) {
      machine.Step();
      saw_set = flag_;
    }
    machine.Step();  // the publish
    seq_[pos % static_cast<std::uint64_t>(cells_)] = 2 * pos + 1;
    const bool wake_spinner = spinning_;
    spinning_ = false;
    if (wake_spinner) {
      spin_parker_.Unpark(machine);
    }
    if (protocol_ != ReadinessProtocol::kFlagBeforePublish) {
      machine.Step();  // the flag, after the fence
      saw_set = flag_;
    }
    if (!saw_set) {
      Set(machine);
    }
  }

  void Consumer(Machine& machine) {
    if (close_) {
      machine.Step();  // Close: the closed bit
      if (protocol_ == ReadinessProtocol::kCloseApartFromTail) {
        closed_flag_ = true;
      } else {
        tail_ |= 1;
      }
      machine.Step();  // the flag, after the fence
      if (!flag_) {
        Set(machine);
      }
      for (;;) {
        const Recv r = TryRecv(machine);
        if (r == Recv::kClosed) {
          return;
        }
        if (r == Recv::kWouldBlock) {
          // A Send claimed its cell before Close and has not published it.
          machine.Step();
          const bool wait = !Published(head_);
          spinning_ = wait;
          if (wait) {
            spin_parker_.Park(machine);
          }
        }
      }
    }
    const int want = cells_;
    while (received_ < want) {
      if (TryRecv(machine) == Recv::kOk) {
        continue;
      }
      WaitAny(machine);
    }
  }

  // One Poll::WaitAny over {readable()} with the registration resident.
  void WaitAny(Machine& machine) {
    for (;;) {
      machine.Step();  // re-arm the latch
      latch_ = 0;
      machine.Step();  // the scan
      if (flag_) {
        return;
      }
      machine.Step();  // the pre-park check under the record lock
      if (latch_ != 0) {
        continue;
      }
      blocked_ = true;
      parker_.Park(machine);
    }
  }

  Recv TryRecv(Machine& machine) {
    machine.Step();  // the head cell's sequence number, then the claim
    if (Published(head_)) {
      seq_[head_ % static_cast<std::uint64_t>(cells_)] =
          2 * (head_ + static_cast<std::uint64_t>(cells_));
      ++head_;
      ++received_;
      machine.Step();  // the readable level, after the fence
      if (!Published(head_) && !Closed()) {
        ResetUnlessReady(machine);
      }
      return Recv::kOk;
    }
    if (close_) {
      machine.Step();  // the tail
      if (Closed()) {
        return (tail_ >> 1) == head_ ? Recv::kClosed : Recv::kWouldBlock;
      }
    }
    machine.Step();  // the flag
    if (flag_) {
      ResetUnlessReady(machine);
    }
    return Recv::kWouldBlock;
  }

  void ResetUnlessReady(Machine& machine) {
    machine.Step();  // the Reset
    flag_ = false;
    if (protocol_ == ReadinessProtocol::kResetWithoutRecheck) {
      return;
    }
    machine.Step();  // the re-check, after the fence
    if (Published(head_) || Closed()) {
      restored_ = true;
      Set(machine);
    }
  }

  // Event::Set with the consumer's registration resident: the flag store
  // (the Dekker load then always finds the poller), then the notify under
  // the event and record locks, then the unpark.
  void Set(Machine& machine) {
    machine.Step();
    flag_ = true;
    machine.Step();
    const bool edge = latch_ == 0;
    latch_ = 1;
    const bool unpark = edge && blocked_;
    blocked_ = false;
    if (unpark) {
      parker_.Unpark(machine);
    }
  }

  const ReadinessProtocol protocol_;
  const int cells_;
  const bool close_;
  Tally* const tally_;
  std::uint64_t seq_[2] = {};
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;  // the enqueue position << 1 | the closed bit
  bool closed_flag_ = false;
  bool flag_ = false;
  std::uint32_t latch_ = 0;
  bool blocked_ = false;
  ModelParker parker_;
  bool spinning_ = false;
  ModelParker spin_parker_;
  int items_ = 0;
  int received_ = 0;
  bool restored_ = false;
  bool refused_ = false;
};

// ---------------------------------------------------------------------------
// A Signal made under the waiter's mutex, its wake deferred to the release
// ---------------------------------------------------------------------------

// Condition::Ready and WakeOwed (src/threads/condition.cc), modelled on
// the simulator's own Nub: the mutex's lock bit, holder and queue, the
// condition's eventcount, waiter count and queue, and each thread's owed
// wakes. A thread queues and de-schedules in one section under the
// machine's spin-lock, and a wake takes that lock, so a popped thread is
// asleep by the time it is made ready. The waiter waits for `ready_` in a
// predicate loop. The signaller sets it and signals under the mutex, then
// releases it. The barger sets it under the mutex too, but signals after
// its release, so a barged re-acquire and an undeferred Signal are on the
// table as well. A critical section runs in the step of its winning
// test-and-set, and a Signal's waiter test, eventcount advance and pop are
// one step: the lock core's and the fast path's own races are covered
// elsewhere. Thread exit, which would pay a wake still owed, is left out:
// it must not be what saves a long-lived signaller.
class SignalUnderLockTest : public LitmusTest {
 public:
  SignalUnderLockTest(SignalDeferral protocol, Tally* tally)
      : protocol_(protocol), tally_(tally) {}

  void Setup(Machine& machine) override {
    machine.Fork([this, &machine] { Waiter(machine); }, /*priority=*/0,
                 "waiter");
    machine.Fork(
        [this, &machine] {
          Acquire(machine, kSignaller);
          ready_ = true;
          Signal(machine, kSignaller);
          Release(machine, kSignaller);
        },
        /*priority=*/0, "signaller");
    machine.Fork(
        [this, &machine] {
          Acquire(machine, kBarger);
          ready_ = true;
          Release(machine, kBarger);
          Signal(machine, kBarger);
        },
        /*priority=*/0, "barger");
  }

  std::string Verify(const RunResult& result) override {
    if (tally_ != nullptr) {
      tally_->completions += result.completed ? 1 : 0;
      tally_->deadlocks += result.deadlock ? 1 : 0;
      tally_->cond_wakes_deferred += deferred_ ? 1 : 0;
    }
    if (!result.completed) {
      if (!owed_[kSignaller].empty() || !owed_[kBarger].empty()) {
        return "lost wakeup: the waiter sleeps on a wake a finished thread "
               "still owes: " +
               result.ToString();
      }
      return "stuck: " + result.ToString();
    }
    if (!mutex_queue_.empty() || cond_queued_ || bit_ != 0) {
      return "the run ended with a queued thread or the mutex held";
    }
    return "";
  }

 private:
  enum : int { kWaiter = 0, kSignaller = 1, kBarger = 2 };

  // Starts inside its Wait, in the wakeup-waiting window: it held m, found
  // `ready_` false, counted itself in at eventcount 0 and released m. Then:
  // Block unless a Signal moved the eventcount, re-acquire m and re-test
  // the predicate.
  void Waiter(Machine& machine) {
    for (int i = 0;;) {
      machine.SpinAcquire();
      if (ec_ != i) {
        --waiters_;
        machine.SpinRelease();
      } else {
        cond_queued_ = true;
        Deschedule(machine, kWaiter);
      }
      Acquire(machine, kWaiter);
      if (ready_) {
        break;
      }
      i = ec_;
      ++waiters_;
      Release(machine, kWaiter);
    }
    Release(machine, kWaiter);
  }

  // The test-and-set; if it fails, queue, re-test the bit and sleep. The
  // caller's critical section runs in the step of the winning
  // test-and-set: no other thread touches its state while the bit is
  // held.
  void Acquire(Machine& machine, int self) {
    for (;;) {
      machine.Step();
      if (bit_ == 0) {
        bit_ = 1;
        holder_ = self;
        return;
      }
      machine.SpinAcquire();
      if (bit_ == 0) {
        machine.SpinRelease();
        continue;  // freed meanwhile: retry the test-and-set
      }
      mutex_queue_.push_back(self);
      Deschedule(machine, self);
    }
  }

  // Clear the bit and test the queue (one step, as the lock core's clear
  // and queue_len_ load); under the spin-lock, make one queued thread
  // ready; then pay the owed wakes.
  void Release(Machine& machine, int self) {
    machine.Step();
    holder_ = -1;
    bit_ = 0;
    const bool flush = protocol_ != SignalDeferral::kReleaseSkipsFlush &&
                       !owed_[self].empty();
    if (mutex_queue_.empty() && !flush) {
      return;  // the bug, if wakes are owed: they stay owed
    }
    machine.SpinAcquire();
    if (!mutex_queue_.empty()) {
      machine.MakeReady(fibers_[mutex_queue_.front()]);
      mutex_queue_.erase(mutex_queue_.begin());
    }
    if (flush) {
      for (int t : owed_[self]) {
        machine.MakeReady(fibers_[t]);
      }
      owed_[self].clear();
    }
    machine.SpinRelease();
  }

  // One step for the waiter test and, under c's lock, the eventcount
  // advance and the pop; then Ready. Only a wake made now takes the
  // spin-lock, which the waiter holds from its queueing to its sleep.
  void Signal(Machine& machine, int self) {
    machine.Step();
    if (waiters_ == 0) {
      return;
    }
    ++ec_;
    if (!cond_queued_) {
      return;
    }
    cond_queued_ = false;
    --waiters_;
    const bool defer = protocol_ == SignalDeferral::kDeferIfHeld
                           ? bit_ != 0
                           : holder_ == self;
    if (defer) {
      deferred_ = true;
      owed_[self].push_back(kWaiter);
      return;
    }
    machine.SpinAcquire();
    machine.MakeReady(fibers_[kWaiter]);
    machine.SpinRelease();
  }

  // Caller holds the spin-lock and has queued itself.
  void Deschedule(Machine& machine, int self) {
    fibers_[self] = Machine::Self();
    fibers_[self]->block_kind = firefly::Fiber::BlockKind::kSemaphore;
    machine.DescheduleSelf();
  }

  const SignalDeferral protocol_;
  Tally* const tally_;
  firefly::Fiber* fibers_[3] = {};
  int bit_ = 0;
  int holder_ = -1;
  std::vector<int> mutex_queue_;
  int ec_ = 0;
  int waiters_ = 1;
  bool cond_queued_ = false;  // only the waiter ever waits on c
  bool ready_ = false;        // the predicate, guarded by the mutex
  std::vector<int> owed_[3];
  bool deferred_ = false;
};

// ---------------------------------------------------------------------------
// Dining philosophers
// ---------------------------------------------------------------------------

class DiningPhilosophersTest : public LitmusTest {
 public:
  DiningPhilosophersTest(int philosophers, bool ordered)
      : n_(philosophers), ordered_(ordered) {}

  void Setup(Machine& machine) override {
    for (int i = 0; i < n_; ++i) {
      forks_.push_back(std::make_unique<firefly::Mutex>(machine));
    }
    for (int i = 0; i < n_; ++i) {
      machine.Fork(
          [this, &machine, i] {
            int first = i;
            int second = (i + 1) % n_;
            if (ordered_ && second < first) {
              std::swap(first, second);  // total order on fork ids
            }
            forks_[static_cast<std::size_t>(first)]->Acquire();
            machine.Step();  // reach for the other fork
            forks_[static_cast<std::size_t>(second)]->Acquire();
            machine.Step();  // eat
            ++meals_;
            forks_[static_cast<std::size_t>(second)]->Release();
            forks_[static_cast<std::size_t>(first)]->Release();
          },
          /*priority=*/0, "phil" + std::to_string(i));
    }
  }

  std::string Verify(const RunResult& result) override {
    if (!result.completed) {
      return "philosophers deadlocked: " + result.ToString();
    }
    if (meals_ != n_) {
      return "not everyone ate";
    }
    return "";
  }

 private:
  const int n_;
  const bool ordered_;
  std::vector<std::unique_ptr<firefly::Mutex>> forks_;
  int meals_ = 0;
};

}  // namespace

LitmusFactory SelfCancelTimeoutLitmus(bool safe, Tally* tally) {
  return [safe, tally] {
    return std::make_unique<SelfCancelTimeoutTest>(safe, tally);
  };
}

LitmusFactory PollDoubleGrantLitmus(bool waiter_consumes, Tally* tally) {
  return [waiter_consumes, tally] {
    return std::make_unique<PollDoubleGrantTest>(waiter_consumes, tally);
  };
}

LitmusFactory PollDeregLostWakeupLitmus(bool safe_cancel, Tally* tally) {
  return [safe_cancel, tally] {
    return std::make_unique<PollDeregLostWakeupTest>(safe_cancel, tally);
  };
}

LitmusFactory AlertExitLitmus(RecordReclaim reclaim, Tally* tally) {
  return [reclaim, tally] {
    return std::make_unique<AlertExitTest>(reclaim, tally);
  };
}

LitmusFactory ExitJoinLitmus(ExitHandoff protocol, Tally* tally) {
  return [protocol, tally] {
    return std::make_unique<ExitJoinTest>(protocol, tally);
  };
}

LitmusFactory BiasedReaderLitmus(BiasProtocol protocol, Tally* tally) {
  return [protocol, tally] {
    return std::make_unique<BiasedReaderTest>(protocol, tally);
  };
}

LitmusFactory QueueReadinessLitmus(ReadinessProtocol protocol, int cells,
                                   bool close, Tally* tally) {
  return [protocol, cells, close, tally] {
    return std::make_unique<QueueReadinessTest>(protocol, cells, close, tally);
  };
}

LitmusFactory SignalUnderLockLitmus(SignalDeferral protocol, Tally* tally) {
  return [protocol, tally] {
    return std::make_unique<SignalUnderLockTest>(protocol, tally);
  };
}

LitmusFactory RwWriterStarvationLitmus(int readers, int rounds, Tally* tally) {
  return [readers, rounds, tally] {
    return std::make_unique<RwWriterStarvationTest>(readers, rounds, tally);
  };
}

LitmusFactory DiningPhilosophersLitmus(int philosophers, bool ordered) {
  return [philosophers, ordered] {
    return std::make_unique<DiningPhilosophersTest>(philosophers, ordered);
  };
}

LitmusFactory MutualExclusionLitmus(int fibers, int iters) {
  return [fibers, iters] {
    return std::make_unique<MutualExclusionTest>(fibers, iters);
  };
}

LitmusFactory WakeupRaceLitmus(bool use_eventcount, Tally* tally) {
  return [use_eventcount, tally] {
    return std::make_unique<WakeupRaceTest>(use_eventcount, tally);
  };
}

LitmusFactory AlertWaitWakeupRaceLitmus(bool use_eventcount) {
  return [use_eventcount] {
    return std::make_unique<AlertWaitWakeupRaceTest>(use_eventcount);
  };
}

LitmusFactory BroadcastLitmus(int waiters) {
  return [waiters] {
    return std::make_unique<BroadcastTestBase<firefly::Condition>>(waiters);
  };
}

LitmusFactory NaiveBroadcastLitmus(int waiters) {
  return [waiters] {
    return std::make_unique<BroadcastTestBase<firefly::NaiveCondition>>(
        waiters);
  };
}

LitmusFactory NaiveSignalLitmus() {
  return [] { return std::make_unique<NaiveSignalTest>(); };
}

LitmusFactory AlertWaitRaceLitmus(Tally* tally) {
  return [tally] { return std::make_unique<AlertWaitRaceTest>(tally); };
}

LitmusFactory SemaphoreHandoffLitmus() {
  return [] { return std::make_unique<SemaphoreHandoffTest>(); };
}

LitmusFactory AlertPRaceLitmus(Tally* tally) {
  return [tally] { return std::make_unique<AlertPRaceTest>(tally); };
}

LitmusFactory AlertWaitGhostLitmus(Tally* tally) {
  return [tally] { return std::make_unique<AlertWaitGhostTest>(tally); };
}

LitmusFactory AlertPOverlapLitmus(Tally* tally) {
  return [tally] { return std::make_unique<AlertPOverlapTest>(tally); };
}

LitmusFactory SignalUnblocksManyLitmus(Tally* tally) {
  return [tally] { return std::make_unique<SignalUnblocksManyTest>(tally); };
}

}  // namespace taos::model
