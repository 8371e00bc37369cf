#pragma once
/// \file json.hpp
/// \brief The project's one JSON text layer: a value tree with parser and
/// dumper, a streaming writer, and the string escaper and real formatter
/// both use. Every JSON file the project writes goes through it.
///
/// Scope is deliberately small: the subset of JSON the project writes
/// (null, bool, number, string, array, object), with properties its
/// formats depend on and std-library JSON shims usually lack:
///
///  * **Objects preserve insertion order.** Writers control key order
///    explicitly, so serialization is byte-stable (same report, same bytes
///    — the CI diff gate and the cross-`--jobs` determinism test rely on
///    it).
///  * **Numbers keep their source text.** A re-serialized value renders the
///    exact token it was parsed from; no float round-trip ever reformats a
///    metric between writer and reader.
///
/// Errors are reported as util::PreconditionError.

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rispp::obs::json {

class Value;
using Member = std::pair<std::string, Value>;

/// One JSON value. Cheap to move; copies are deep.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;  // null
  static Value boolean(bool b);
  /// A number from its token text ("42", "-1.5", "0.123456"); the text is
  /// what serialization emits, the double is what comparisons use.
  static Value number(std::string token);
  static Value number(std::uint64_t v);
  static Value number(std::int64_t v);
  /// A number token for `x` as append_real writes it.
  static Value real(double x, int decimals);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }

  bool as_bool() const;
  /// Numeric value for comparisons; exact for integers up to 2^53.
  double as_double() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const std::string& as_string() const;  ///< String payload
  const std::string& token() const;      ///< Number source text

  /// Array access; throws on kind mismatch.
  std::vector<Value>& items();
  const std::vector<Value>& items() const;
  Value& push_back(Value v);

  /// Object access; members stay in insertion order. find() returns nullptr
  /// when absent, at() throws.
  std::vector<Member>& members();
  const std::vector<Member>& members() const;
  Value& add(std::string key, Value v);  ///< appends, returns the new value
  const Value* find(const std::string& key) const;
  const Value& at(const std::string& key) const;

  /// Serializes. `indent` < 0 → compact one-line; >= 0 → pretty-printed
  /// with that many spaces per level and a trailing newline at top level.
  std::string dump(int indent = -1) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string text_;  ///< string payload or number token
  std::vector<Value> items_;
  std::vector<Member> members_;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Parses one JSON document (trailing whitespace allowed, anything else
/// throws). Throws util::PreconditionError with a byte offset on malformed
/// input, unknown escapes, or numbers the grammar rejects.
Value parse(const std::string& text);

/// JSON string escaping: `"` as `\"`, `\` as `\\`, newline and tab as
/// `\n` and `\t`, every other control character as `\u00XX`; all other
/// bytes (UTF-8 included) pass through.
std::string escape(std::string_view s);

/// Appends `x` in fixed notation with `decimals` digits after the point,
/// trailing zeros and a bare '.' trimmed ("12.5", "3", "-0"). Throws
/// util::PreconditionError on a non-finite value. Six decimals for reports,
/// simulated-cycle traces and sweep summaries, three for the wall-clock
/// host trace and telemetry (docs/FORMATS.md §5).
void append_real(std::string& out, double x, int decimals);

/// Streams one JSON document into a string with no tree in between (run
/// reports, Chrome trace events). Its bytes equal Value::dump of the same
/// document: Layout::Pretty is dump(2), Layout::Compact is dump(-1). Keys
/// are the caller's own identifiers and are written unescaped.
class Writer {
 public:
  enum class Layout { Pretty, Compact };

  explicit Writer(Layout layout) : pretty_(layout == Layout::Pretty) {}

  /// Hands over the document written so far (Pretty: ending in a newline)
  /// and starts over empty.
  std::string take();

  /// Starts a member of the open object; its value follows.
  Writer& key(std::string_view k) {
    next();
    out_ += '"';
    out_ += k;
    out_ += pretty_ ? "\": " : "\":";
    return *this;
  }
  /// Starts an element of the open array; its value follows.
  Writer& item() {
    next();
    return *this;
  }

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  template <std::integral Int>
  void integer(Int x) {
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
    out_.append(buf, static_cast<std::size_t>(end - buf));
  }
  /// A real with at most `decimals` decimals (append_real).
  void real(double x, int decimals) { append_real(out_, x, decimals); }
  void str(std::string_view s);

 private:
  void next() {
    if (!empty_) out_ += ',';
    empty_ = false;
    if (pretty_) newline();
  }
  void newline() {
    out_ += '\n';
    out_.append(2 * depth_, ' ');
  }
  void open(char bracket) {
    out_ += bracket;
    ++depth_;
    empty_ = true;
  }
  void close(char bracket) {
    --depth_;
    if (pretty_ && !empty_) newline();
    out_ += bracket;
    empty_ = false;  // the closed container is its parent's element
  }

  std::string out_;
  std::size_t depth_ = 0;
  bool empty_ = true;  ///< the innermost open container has no element yet
  bool pretty_;
};

}  // namespace rispp::obs::json
