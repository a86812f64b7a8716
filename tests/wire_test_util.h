// Wire helpers shared by the network and replication tests.

#ifndef LMERGE_TESTS_WIRE_TEST_UTIL_H_
#define LMERGE_TESTS_WIRE_TEST_UTIL_H_

#include <cstdint>
#include <string>

#include "net/protocol.h"
#include "stream/element.h"

namespace lmerge::testing_util {

// Origin stamp carried by the tests' publisher frames (any non-zero value:
// the fan-out republishes the oldest one it folds).
inline constexpr int64_t kTestOriginUs = 1000;

// One element as a publisher sends it: a stamped batch of one.
inline std::string OneElementFrame(const StreamElement& element) {
  return net::EncodeElementsFrame({element}, kTestOriginUs);
}

}  // namespace lmerge::testing_util

#endif  // LMERGE_TESTS_WIRE_TEST_UTIL_H_
