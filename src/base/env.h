// Boolean switches read from the environment.

#ifndef TAOS_SRC_BASE_ENV_H_
#define TAOS_SRC_BASE_ENV_H_

namespace taos {

// The one parse of an on/off environment variable: unset, empty or "0" is
// off, any other value ("1", "true", "yes", ...) is on. The runtime and the
// bench artifact's stamps both read their switches through here, so a stamp
// cannot disagree with the mode the runtime chose.
bool EnvFlag(const char* name);

}  // namespace taos

#endif  // TAOS_SRC_BASE_ENV_H_
