// Must NOT compile: discarding a [[nodiscard]] Status is a build error
// (-Werror=unused-result, see CMakeLists.txt). Built only by the
// discarded_status_compile ctest, which passes on the compiler's
// nodiscard error.
#include "common/status.h"

cgnp::Status Fails() { return cgnp::InvalidArgumentError("discarded"); }

int main() {
  Fails();
  return 0;
}
