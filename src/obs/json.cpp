#include "rispp/obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::obs::json {

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

Value Value::number(std::string token) {
  const auto num = util::parse_number<double>(token);
  RISPP_REQUIRE(num.has_value(), "not a finite number: '" + token + "'");
  Value v;
  v.kind_ = Kind::Number;
  v.num_ = *num;
  v.text_ = std::move(token);
  return v;
}

Value Value::number(std::uint64_t n) { return number(std::to_string(n)); }
Value Value::number(std::int64_t n) { return number(std::to_string(n)); }

Value Value::real(double x, int decimals) {
  std::string token;
  append_real(token, x, decimals);
  return number(std::move(token));
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.text_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::Object;
  return v;
}

bool Value::as_bool() const {
  RISPP_REQUIRE(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double Value::as_double() const {
  RISPP_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return num_;
}

std::uint64_t Value::as_u64() const {
  RISPP_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return util::require_number<std::uint64_t>(text_, "JSON unsigned integer");
}

std::int64_t Value::as_i64() const {
  RISPP_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return util::require_number<std::int64_t>(text_, "JSON signed integer");
}

const std::string& Value::as_string() const {
  RISPP_REQUIRE(kind_ == Kind::String, "JSON value is not a string");
  return text_;
}

const std::string& Value::token() const {
  RISPP_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return text_;
}

std::vector<Value>& Value::items() {
  RISPP_REQUIRE(kind_ == Kind::Array, "JSON value is not an array");
  return items_;
}

const std::vector<Value>& Value::items() const {
  RISPP_REQUIRE(kind_ == Kind::Array, "JSON value is not an array");
  return items_;
}

Value& Value::push_back(Value v) {
  items().push_back(std::move(v));
  return items_.back();
}

std::vector<Member>& Value::members() {
  RISPP_REQUIRE(kind_ == Kind::Object, "JSON value is not an object");
  return members_;
}

const std::vector<Member>& Value::members() const {
  RISPP_REQUIRE(kind_ == Kind::Object, "JSON value is not an object");
  return members_;
}

Value& Value::add(std::string key, Value v) {
  members().emplace_back(std::move(key), std::move(v));
  return members_.back().second;
}

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : members())
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const auto* v = find(key);
  RISPP_REQUIRE(v != nullptr, "JSON object has no member '" + key + "'");
  return *v;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_real(std::string& out, double x, int decimals) {
  RISPP_REQUIRE(std::isfinite(x), "JSON cannot hold a non-finite number");
  char buf[352];  // the longest finite double in fixed notation fits
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x,
                                       std::chars_format::fixed, decimals);
  RISPP_ENSURE(ec == std::errc{}, "fixed-format double overflowed");
  std::string_view token(buf, static_cast<std::size_t>(end - buf));
  if (token.find('.') != std::string_view::npos) {
    token = token.substr(0, token.find_last_not_of('0') + 1);
    if (token.back() == '.') token.remove_suffix(1);
  }
  out += token;
}

std::string Writer::take() {
  if (pretty_) out_ += '\n';
  depth_ = 0;
  empty_ = true;
  return std::exchange(out_, {});
}

void Writer::str(std::string_view s) {
  out_ += '"';
  out_ += escape(s);
  out_ += '"';
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: out += text_; break;
    case Kind::String:
      out += '"';
      out += escape(text_);
      out += '"';
      break;
    case Kind::Array:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    case Kind::Object:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += indent < 0 ? "\":" : "\": ";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(&text) {}

  Value document() {
    auto v = value();
    skip_ws();
    require(pos_ == text_->size(), "trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw util::PreconditionError("JSON parse error at byte " +
                                  std::to_string(pos_) + ": " + what);
  }

  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  char peek() const {
    require(pos_ < text_->size(), "unexpected end of input");
    return (*text_)[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_->size()) {
      const char c = (*text_)[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p; ++p)
      if (take() != *p) fail(std::string("bad literal (expected ") + word + ")");
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return Value::string(string_token());
      case 't': literal("true"); return Value::boolean(true);
      case 'f': literal("false"); return Value::boolean(false);
      case 'n': literal("null"); return Value();
      default: return number_token();
    }
  }

  Value object() {
    take();  // {
    auto obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      take();
      return obj;
    }
    while (true) {
      skip_ws();
      require(peek() == '"', "expected object key string");
      auto key = string_token();
      skip_ws();
      require(take() == ':', "expected ':' after object key");
      obj.add(std::move(key), value());
      skip_ws();
      const char c = take();
      if (c == '}') return obj;
      require(c == ',', "expected ',' or '}' in object");
    }
  }

  Value array() {
    take();  // [
    auto arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      take();
      return arr;
    }
    while (true) {
      arr.push_back(value());
      skip_ws();
      const char c = take();
      if (c == ']') return arr;
      require(c == ',', "expected ',' or ']' in array");
    }
  }

  std::string string_token() {
    take();  // "
    std::string out;
    while (true) {
      require(pos_ < text_->size(), "unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        require(static_cast<unsigned char>(c) >= 0x20,
                "unescaped control character in string");
        out += c;
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          const char* hex = text_->data() + pos_;
          require(text_->size() - pos_ >= 4 &&
                      std::from_chars(hex, hex + 4, code, 16).ptr == hex + 4,
                  "bad \\u escape");
          pos_ += 4;
          // The writers only escape control characters; decode the ASCII
          // range and reject anything that needs real UTF-16 handling.
          require(code < 0x80, "non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown string escape");
      }
    }
  }

  bool at(char c) const {
    return pos_ < text_->size() && (*text_)[pos_] == c;
  }
  bool at_digit() const {
    return pos_ < text_->size() && (*text_)[pos_] >= '0' &&
           (*text_)[pos_] <= '9';
  }
  void digits(const char* what) {
    require(at_digit(), what);
    while (at_digit()) ++pos_;
  }

  Value number_token() {
    const auto start = pos_;
    if (at('-')) ++pos_;
    digits("expected digit");
    if (at('.')) {
      ++pos_;
      digits("expected digit after decimal point");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits("expected digit in exponent");
    }
    return Value::number(text_->substr(start, pos_ - start));
  }

  const std::string* text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).document(); }

}  // namespace rispp::obs::json
