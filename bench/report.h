// The shared harness of every bench/ target: a --name=value flag parser, a
// JSON writer for BENCH_<name>.json, and gate records that print the FAIL:
// line and set the exit code.
//
// Flags. A bench binds each flag to the variable holding its default, then
// parses argv:
//
//   std::size_t stripes = 4;
//   bench::Flags flags;
//   flags.add("stripes", &stripes);
//   if (!flags.parse(argc, argv)) return 2;
//
// Values are written --name=value in any order; a list flag takes a comma
// list (--schemes=a,b) that replaces the default; a bool flag is bare
// (--csv). An unknown flag, a missing or malformed value, or a positional
// argument prints the error and a usage line, and parse() returns false.
//
// JSON. Report opens the document with {"bench": "<name>"}; the bench adds
// its config fields and its "results" rows through json(), and finish()
// appends the "gates" array and writes the file. Doubles are written as
// std::ostream writes them by default (6 significant digits); NaN and
// infinities become null.
//
// Gates. gate(name, threshold, measured, pass) records one acceptance check
// as {"name", "threshold", "measured", "pass"} and prints "FAIL: ..." to
// stderr when it does not pass; finish() then returns exit code 1.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace dblrep::bench {

namespace detail {

template <typename T>
  requires std::is_arithmetic_v<T>
bool parse_value(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

inline bool parse_value(std::string_view text, std::string& out) {
  out = text;
  return true;
}

/// Comma list; empty items are skipped, so "--schemes=" is an empty list.
template <typename T>
bool parse_value(std::string_view text, std::vector<T>& out) {
  out.clear();
  while (!text.empty()) {
    const std::size_t comma = std::min(text.find(','), text.size());
    if (comma > 0) {
      T item{};
      if (!parse_value(text.substr(0, comma), item)) return false;
      out.push_back(std::move(item));
    }
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return true;
}

}  // namespace detail

class Flags {
 public:
  using Target =
      std::variant<bool*, int*, std::size_t*, double*, std::string*,
                   std::vector<std::size_t>*, std::vector<std::string>*>;

  /// Binds --name to *target, which holds the default until parse().
  void add(std::string name, Target target) {
    flags_.push_back({std::move(name), target});
  }

  /// Parses argv[1..argc). On the first bad argument prints the error and
  /// the usage line to stderr and returns false (error() keeps it).
  bool parse(int argc, const char* const* argv) {
    if (argc > 0) {
      const std::string_view path = argv[0];
      program_ = path.substr(path.find_last_of('/') + 1);
    }
    for (int i = 1; i < argc; ++i) {
      if (std::string error = parse_one(argv[i]); !error.empty()) {
        fail(error);
        return false;
      }
    }
    return true;
  }

  /// For a value the bench rejects after parse(): prints `message` and the
  /// usage line, and returns the bad-flags exit code 2.
  int fail(std::string_view message) {
    error_ = message;
    std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), error_.c_str(),
                 usage().c_str());
    return 2;
  }

  const std::string& error() const { return error_; }

  std::string usage() const {
    std::string out = "usage: " + program_;
    for (const Flag& flag : flags_) {
      out += " [--" + flag.name;
      std::visit(
          [&out](auto* target) {
            using T = std::remove_pointer_t<decltype(target)>;
            if constexpr (std::is_same_v<T, std::string>) {
              out += "=S";
            } else if constexpr (std::is_floating_point_v<T>) {
              out += "=X";
            } else if constexpr (std::is_arithmetic_v<T> &&
                                 !std::is_same_v<T, bool>) {
              out += "=N";
            } else if constexpr (!std::is_same_v<T, bool>) {
              out += "=LIST";
            }
          },
          flag.target);
      out += "]";
    }
    return out;
  }

 private:
  struct Flag {
    std::string name;
    Target target;
  };

  /// Applies one argument; returns the error message, empty on success.
  std::string parse_one(std::string_view arg) {
    if (!arg.starts_with("--")) {
      return "unexpected argument '" + std::string(arg) + "'";
    }
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(2, eq == arg.npos ? eq : eq - 2));
    const bool has_value = eq != arg.npos;
    const std::string_view value =
        has_value ? arg.substr(eq + 1) : std::string_view();
    for (const Flag& flag : flags_) {
      if (flag.name != name) continue;
      return std::visit(
          [&](auto* target) -> std::string {
            using T = std::remove_pointer_t<decltype(target)>;
            if constexpr (std::is_same_v<T, bool>) {
              if (has_value) return "--" + name + " takes no value";
              *target = true;
            } else {
              if (!has_value) return "missing value for --" + name;
              T parsed{};
              if (!detail::parse_value(value, parsed)) {
                return "bad value for --" + name + ": '" + std::string(value) +
                       "'";
              }
              *target = std::move(parsed);
            }
            return {};
          },
          flag.target);
    }
    return "unknown flag --" + name;
  }

  std::vector<Flag> flags_;
  std::string program_ = "bench";
  std::string error_;
};

/// Streaming JSON writer. The top-level container and its direct children
/// lay out one item per line; anything deeper (a result row) stays on one
/// line.
class Json {
 public:
  /// Opens a container: keyed inside an object; with no key at the top
  /// level or inside an array.
  Json& begin_object(std::string_view key = {}) { return open(key, '{', '}'); }
  Json& begin_array(std::string_view key = {}) { return open(key, '[', ']'); }

  Json& end() {
    const Level level = levels_.back();
    levels_.pop_back();
    if (level.multiline && !level.empty) newline();
    out_ << level.close;
    return *this;
  }

  template <typename T>
  Json& field(std::string_view key, const T& value) {
    write_key(key);
    write(value);
    return *this;
  }

  template <typename T>
  Json& element(const T& value) {
    separate();
    write(value);
    return *this;
  }

  /// A value that is already JSON text, inserted as is.
  Json& raw_field(std::string_view key, std::string_view json) {
    write_key(key);
    out_ << json;
    return *this;
  }

  std::string str() const { return out_.str() + "\n"; }

  /// Writes str() to `path`; reports "wrote" or "cannot write" on stderr.
  bool save(const std::string& path) const {
    std::ofstream file(path);
    file << str();
    const bool ok = static_cast<bool>(file.flush());
    std::fprintf(stderr, "%s %s\n", ok ? "wrote" : "cannot write",
                 path.c_str());
    return ok;
  }

 private:
  struct Level {
    char close;
    bool multiline;
    bool empty = true;
  };

  void newline() { out_ << '\n' << std::string(2 * levels_.size(), ' '); }

  /// Comma and layout before the next item of the innermost container.
  void separate() {
    if (levels_.empty()) return;
    Level& level = levels_.back();
    if (!level.empty) out_ << ',';
    if (level.multiline) {
      newline();
    } else if (!level.empty) {
      out_ << ' ';
    }
    level.empty = false;
  }

  void write_key(std::string_view key) {
    separate();
    write_string(key);
    out_ << ": ";
  }

  Json& open(std::string_view key, char open, char close) {
    if (key.empty()) {
      separate();
    } else {
      write_key(key);
    }
    out_ << open;
    levels_.push_back({close, levels_.size() < 2});
    return *this;
  }

  template <typename T>
  void write(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      out_ << (value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      out_ << +value;  // promoted, so a char-sized integer prints as a number
    } else if constexpr (std::is_floating_point_v<T>) {
      if (std::isfinite(value)) {
        out_ << value;
      } else {
        out_ << "null";
      }
    } else {
      write_string(std::string_view(value));
    }
  }

  void write_string(std::string_view text) {
    constexpr char kHex[] = "0123456789abcdef";
    out_ << '"';
    for (const char c : text) {
      const auto byte = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (byte < 0x20) {
        out_ << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xf];
      } else {
        out_ << c;
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  std::vector<Level> levels_;
};

/// One bench's BENCH_<name>.json document plus its gates.
class Report {
 public:
  explicit Report(std::string_view bench) {
    json_.begin_object().field("bench", bench);
  }

  Json& json() { return json_; }

  /// Records one gate; prints "FAIL: <name> ..." to stderr unless `pass`.
  void gate(std::string name, double threshold, double measured, bool pass) {
    if (!pass) {
      std::fprintf(stderr, "FAIL: %s (measured %g, threshold %g)\n",
                   name.c_str(), measured, threshold);
    }
    gates_.push_back({std::move(name), threshold, measured, pass});
  }

  /// A yes/no gate: threshold 1, measured 1 when it holds, else 0.
  void gate(std::string name, bool pass) {
    gate(std::move(name), 1, pass ? 1 : 0, pass);
  }

  bool passed() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& g) { return g.pass; });
  }

  /// Appends the "gates" array, closes the document and writes it to
  /// `path`. Returns the exit code: 0 when every gate passed, 1 when one
  /// failed or the file cannot be written.
  int finish(const std::string& path) {
    json_.begin_array("gates");
    for (const Gate& g : gates_) {
      json_.begin_object()
          .field("name", g.name)
          .field("threshold", g.threshold)
          .field("measured", g.measured)
          .field("pass", g.pass)
          .end();
    }
    json_.end().end();
    return json_.save(path) && passed() ? 0 : 1;
  }

 private:
  struct Gate {
    std::string name;
    double threshold;
    double measured;
    bool pass;
  };

  Json json_;
  std::vector<Gate> gates_;
};

}  // namespace dblrep::bench
