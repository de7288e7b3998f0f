// The E1 translation unit: an Acquire/Release pair as client code writes
// it, plus each transition alone. e1_inline_test disassembles these three
// functions to pin how many atomic read-modify-writes the in-line fast
// paths compile to. extern "C" keeps the symbol names plain.

#include "src/threads/mutex.h"

extern "C" void TaosE1Pair(taos::Mutex& m) {
  m.Acquire();
  m.Release();
}

extern "C" void TaosE1Acquire(taos::Mutex& m) { m.Acquire(); }

extern "C" void TaosE1Release(taos::Mutex& m) { m.Release(); }
