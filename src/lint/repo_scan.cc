#include "lint/repo_scan.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace kkt::lint {
namespace {

namespace fs = std::filesystem;

bool has_ext(std::string_view path, std::string_view ext) {
  return path.size() > ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

bool under(std::string_view path, std::string_view dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("kkt_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return std::move(ss).str();
}

// Sorted repo-relative paths of every regular file under root/dir.
std::vector<std::string> list_files(const fs::path& root,
                                    std::string_view dir) {
  std::vector<std::string> out;
  const fs::path base = root / dir;
  if (!fs::exists(base)) return out;
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    out.push_back(
        fs::relative(entry.path(), root).generic_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::optional<FileClass> classify_path(std::string_view rel) {
  const bool header = has_ext(rel, ".h");
  const bool source =
      header || has_ext(rel, ".cc") || has_ext(rel, ".cpp");
  if (!source) return std::nullopt;
  FileClass cls;
  cls.header = header;
  if (under(rel, "src") || under(rel, "tools")) {
    cls.determinism = true;
    cls.rng_util = rel == "src/util/rng.h";
    cls.hot_path = std::find(kHotPathFiles.begin(), kHotPathFiles.end(),
                             rel) != kHotPathFiles.end();
    return cls;
  }
  // Outside the result-producing code only headers are scanned (hygiene).
  if ((under(rel, "tests") || under(rel, "examples")) && header) {
    return cls;
  }
  return std::nullopt;
}

RepoReport scan_repo(const std::string& root) {
  const fs::path base(root);
  if (!fs::is_directory(base / "src")) {
    throw std::runtime_error("kkt_lint: '" + root +
                             "' does not look like a repo root (no src/)");
  }
  RepoReport report;
  std::vector<std::string> test_sources;
  for (const std::string_view dir :
       {std::string_view("src"), std::string_view("tools"),
        std::string_view("tests"), std::string_view("examples")}) {
    for (const std::string& rel : list_files(base, dir)) {
      if (under(rel, "tests") && has_ext(rel, "_test.cc")) {
        test_sources.push_back(rel);
      }
      const auto cls = classify_path(rel);
      if (!cls.has_value()) continue;
      const std::string text = read_file(base / rel);
      // Track unordered members declared in the paired header: iteration
      // in foo.cc over a container declared in foo.h must still trip.
      std::vector<std::string> extra;
      if (has_ext(rel, ".cc")) {
        const fs::path header =
            base / (rel.substr(0, rel.size() - 3) + ".h");
        if (fs::exists(header)) {
          extra = collect_unordered_names(read_file(header));
        }
      }
      auto found = scan_file(rel, text, *cls, extra, &report.stats);
      report.findings.insert(report.findings.end(),
                             std::make_move_iterator(found.begin()),
                             std::make_move_iterator(found.end()));
      ++report.files_scanned;
    }
  }
  const fs::path cmake = base / "tests/CMakeLists.txt";
  if (fs::exists(cmake)) {
    auto found = check_test_registration(test_sources, read_file(cmake),
                                         "tests/CMakeLists.txt");
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(found.begin()),
                           std::make_move_iterator(found.end()));
  }
  std::sort(report.findings.begin(), report.findings.end(), finding_less);
  return report;
}

}  // namespace kkt::lint
