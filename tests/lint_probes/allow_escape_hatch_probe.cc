// Positive probe: every violation below carries a `// mbi-lint: allow(...)`
// escape hatch, so mbi-lint must report ZERO findings for this file. If the
// suppression mechanism breaks, --self-test fails here.
// Not compiled; linter input only (see README.md).

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#define MBI_HOT

namespace probe {

// Comment-above form: the allow() on its own line covers the next line.
// mbi-lint: allow(no-raw-mutex)
std::mutex g_probe_mu;

void Suppressed() {
  std::thread t([] {});  // mbi-lint: allow(no-raw-thread)
  t.join();
  std::FILE* f = std::fopen("/dev/null", "r");  // mbi-lint: allow(no-raw-io)
  if (f != nullptr) std::fclose(f);  // mbi-lint: allow(no-raw-io)
  int* leak = new int(1);  // mbi-lint: allow(no-naked-new)
  delete leak;             // mbi-lint: allow(no-naked-new)
}

MBI_HOT int HotSuppressed(int x) {
  // Multi-rule form: one comment, several rules.
  std::vector<int> v;  // mbi-lint: allow(no-unbounded-container-in-hot, no-naked-new)
  v.push_back(x);
  return v.back();
}

}  // namespace probe
