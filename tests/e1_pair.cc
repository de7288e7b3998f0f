// The E1 translation unit: an Acquire/Release pair as client code writes
// it, plus each transition alone, for Mutex and for ReaderWriterMutex's
// shared mode. e1_inline_test disassembles these functions to pin how many
// atomic read-modify-writes the in-line fast paths compile to. extern "C"
// keeps the symbol names plain.

#include "src/threads/mutex.h"
#include "src/threads/rwmutex.h"

extern "C" void TaosE1Pair(taos::Mutex& m) {
  m.Acquire();
  m.Release();
}

extern "C" void TaosE1Acquire(taos::Mutex& m) { m.Acquire(); }

extern "C" void TaosE1Release(taos::Mutex& m) { m.Release(); }

extern "C" void TaosE1SharedPair(taos::ReaderWriterMutex& rw) {
  rw.AcquireShared();
  rw.ReleaseShared();
}

extern "C" void TaosE1SharedAcquire(taos::ReaderWriterMutex& rw) {
  rw.AcquireShared();
}

extern "C" void TaosE1SharedRelease(taos::ReaderWriterMutex& rw) {
  rw.ReleaseShared();
}
