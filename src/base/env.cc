#include "src/base/env.h"

#include <cstdlib>
#include <cstring>

namespace taos {

bool EnvFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace taos
