// Plain `main` for the libFuzzer harnesses: runs every file of the given
// corpus directories (and any plain file arguments) through
// LLVMFuzzerTestOneInput once, in sorted order. It lets a compiler without
// libFuzzer, and the sanitizer test job, replay the committed corpora as
// ordinary tests.
//
// Usage: fuzz_<harness>_replay <corpus-dir-or-file>...

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    if (fs::is_directory(argv[i])) {
      for (const fs::directory_entry& e : fs::directory_iterator(argv[i])) {
        if (e.is_regular_file()) inputs.push_back(e.path());
      }
    } else {
      inputs.emplace_back(argv[i]);
    }
  }
  std::sort(inputs.begin(), inputs.end());
  for (const fs::path& p : inputs) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", p.c_str());
      return 1;
    }
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  }
  std::printf("replayed %zu inputs\n", inputs.size());
  return inputs.empty() ? 1 : 0;
}
