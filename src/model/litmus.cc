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
// Biased readers: publish/re-check against revoke/scan, and the drain wake
// ---------------------------------------------------------------------------

// ReaderWriterMutex's biased reader protocol (src/threads/rwmutex.h),
// modelled at the granularity of its shared state: the bias flag, the
// reader's slot, whether the draining writer is queued, and the writer's
// parker. Every access the protocol makes seq_cst is its own step, and a
// step under the object lock (the writer's queue-and-re-scan, the
// release's look for a queued drainer) is one step. One reader and one
// writer, which already holds the writer bit; a reader that finds the
// flag cleared takes the word, the Nub protocol the other litmus tests
// cover, and leaves the scenario.
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
    for (;;) {
      machine.Step();  // the scan
      if (!slot_) {
        break;
      }
      machine.Step();  // under the object lock: queue at the front, re-scan
      queued_ = true;
      if (!slot_) {
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

  const BiasProtocol protocol_;
  Tally* const tally_;
  bool flag_ = true;
  bool slot_ = false;
  bool queued_ = false;
  ModelParker parker_;
  bool in_reader_ = false;
  bool in_writer_ = false;
  bool overlap_ = false;
  bool entered_biased_ = false;
  bool backed_out_ = false;
  bool drain_parked_ = false;
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

LitmusFactory BiasedReaderLitmus(BiasProtocol protocol, Tally* tally) {
  return [protocol, tally] {
    return std::make_unique<BiasedReaderTest>(protocol, tally);
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
