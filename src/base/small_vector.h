// A vector of trivially copyable values that keeps its first N in place and
// spills to the heap only past them. The wake paths collect the parkers (or
// records) they will unpark after dropping an object lock; almost always
// that is one or two, and a std::vector would cost a malloc and a free on
// every wake.

#ifndef TAOS_SRC_BASE_SMALL_VECTOR_H_
#define TAOS_SRC_BASE_SMALL_VECTOR_H_

#include <cstddef>
#include <cstring>
#include <type_traits>

namespace taos {

template <typename T, std::size_t N = 8>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>, "copied with memcpy");
  static_assert(N > 0);

 public:
  SmallVector() = default;
  ~SmallVector() {
    if (data_ != inline_) {
      delete[] data_;
    }
  }
  SmallVector(const SmallVector&) = delete;
  SmallVector& operator=(const SmallVector&) = delete;

  void push_back(T v) {
    if (size_ == capacity_) [[unlikely]] {
      Grow();
    }
    data_[size_++] = v;
  }

  std::size_t size() const { return size_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }

 private:
  void Grow() {
    T* bigger = new T[capacity_ * 2];
    std::memcpy(bigger, data_, size_ * sizeof(T));
    if (data_ != inline_) {
      delete[] data_;
    }
    data_ = bigger;
    capacity_ *= 2;
  }

  T inline_[N];
  T* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace taos

#endif  // TAOS_SRC_BASE_SMALL_VECTOR_H_
