#include "rispp/dlx/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <istream>
#include <map>
#include <sstream>
#include <vector>

#include "rispp/util/parse.hpp"

namespace rispp::dlx {

namespace {

struct Token {
  std::string text;
};

/// Splits an operand list on commas/whitespace, keeping "imm(reg)" intact.
std::vector<std::string> split_operands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// A register is `r` (or `R`) and 0-31 in decimal (docs/FORMATS.md §3).
std::uint8_t parse_reg(std::size_t line, const std::string& tok) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
    throw AsmError(line, "expected register, got '" + tok + "'");
  const auto n =
      util::parse_number<std::uint8_t>(std::string_view(tok).substr(1));
  if (!n || *n > 31)
    throw AsmError(line, "register out of range: '" + tok + "'");
  return *n;
}

/// An immediate is an optional '-' and then decimal digits without a
/// leading zero, fitting int32, or "0x" and hex digits fitting 32 bits,
/// read as a two's-complement pattern (docs/FORMATS.md §3).
std::int32_t parse_imm(std::size_t line, const std::string& tok) {
  const auto invalid = [&] {
    return AsmError(line, "invalid immediate: '" + tok + "'");
  };
  const bool negative = tok.starts_with('-');
  const auto digits = std::string_view(tok).substr(negative ? 1 : 0);
  if (digits.starts_with("0x")) {
    std::uint32_t bits = 0;
    const char* const last = digits.data() + digits.size();
    const auto [end, ec] = std::from_chars(digits.data() + 2, last, bits, 16);
    if (ec != std::errc{} || end != last) throw invalid();
    return static_cast<std::int32_t>(negative ? 0u - bits : bits);
  }
  if (digits.size() > 1 && digits.starts_with('0')) throw invalid();
  const auto value = util::parse_number<std::int32_t>(tok);
  if (!value) throw invalid();
  return *value;
}

/// Parses "imm(reg)" memory operands.
void parse_mem(std::size_t line, const std::string& tok, std::int32_t& imm,
               std::uint8_t& base) {
  const auto open = tok.find('(');
  const auto close = tok.find(')');
  if (open == std::string::npos || close != tok.size() - 1 || open == 0)
    throw AsmError(line, "expected offset(base), got '" + tok + "'");
  imm = parse_imm(line, tok.substr(0, open));
  base = parse_reg(line, tok.substr(open + 1, close - open - 1));
}

bool is_label_ref(const std::string& tok) {
  return !tok.empty() && !std::isdigit(static_cast<unsigned char>(tok[0])) &&
         tok[0] != '-' && tok[0] != '+';
}

struct PendingLabel {
  std::size_t instr;
  std::string label;
  std::size_t line;
};

const std::map<std::string, Op>& mnemonics() {
  static const std::map<std::string, Op> table = {
      {"add", Op::Add},   {"sub", Op::Sub},     {"and", Op::And},
      {"or", Op::Or},     {"xor", Op::Xor},     {"slt", Op::Slt},
      {"sll", Op::Sll},   {"srl", Op::Srl},     {"sra", Op::Sra},
      {"mul", Op::Mul},   {"addi", Op::Addi},   {"andi", Op::Andi},
      {"ori", Op::Ori},   {"xori", Op::Xori},   {"slti", Op::Slti},
      {"lui", Op::Lui},   {"lw", Op::Lw},       {"sw", Op::Sw},
      {"beq", Op::Beq},   {"bne", Op::Bne},     {"blt", Op::Blt},
      {"bge", Op::Bge},   {"j", Op::J},         {"jal", Op::Jal},
      {"jr", Op::Jr},     {"si", Op::Si},       {"forecast", Op::Forecast},
      {"release", Op::Release},                 {"nop", Op::Nop},
      {"print", Op::Print},                     {"halt", Op::Halt},
  };
  return table;
}

}  // namespace

Program assemble(std::istream& in) {
  Program prog;
  std::map<std::string, std::size_t> labels;
  std::vector<PendingLabel> pending;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto cut = raw.find_first_of(";#");
    if (cut != std::string::npos) raw.erase(cut);

    // Labels (possibly several) at line start.
    std::istringstream ls(raw);
    std::string word;
    if (!(ls >> word)) continue;
    while (!word.empty() && word.back() == ':') {
      const auto name = word.substr(0, word.size() - 1);
      if (name.empty()) throw AsmError(line_no, "empty label");
      if (!labels.emplace(name, prog.code.size()).second)
        throw AsmError(line_no, "duplicate label: '" + name + "'");
      if (!(ls >> word)) {
        word.clear();
        break;
      }
    }
    if (word.empty()) continue;

    std::string mnemonic = word;
    std::transform(mnemonic.begin(), mnemonic.end(), mnemonic.begin(),
                   [](unsigned char c) { return std::tolower(c); });

    std::string rest;
    std::getline(ls, rest);

    if (mnemonic == ".data") {
      for (const auto& tok : split_operands(rest))
        prog.data.push_back(static_cast<std::uint32_t>(parse_imm(line_no, tok)));
      continue;
    }

    const auto it = mnemonics().find(mnemonic);
    if (it == mnemonics().end())
      throw AsmError(line_no, "unknown mnemonic: '" + word + "'");

    Instruction ins;
    ins.op = it->second;
    auto ops = split_operands(rest);
    auto need = [&](std::size_t n) {
      if (ops.size() != n)
        throw AsmError(line_no, "'" + mnemonic + "' expects " +
                                    std::to_string(n) + " operands, got " +
                                    std::to_string(ops.size()));
    };

    switch (ins.op) {
      case Op::Add: case Op::Sub: case Op::And: case Op::Or: case Op::Xor:
      case Op::Slt: case Op::Sll: case Op::Srl: case Op::Sra: case Op::Mul:
        need(3);
        ins.rd = parse_reg(line_no, ops[0]);
        ins.rs = parse_reg(line_no, ops[1]);
        ins.rt = parse_reg(line_no, ops[2]);
        break;
      case Op::Addi: case Op::Andi: case Op::Ori: case Op::Xori: case Op::Slti:
        need(3);
        ins.rd = parse_reg(line_no, ops[0]);
        ins.rs = parse_reg(line_no, ops[1]);
        ins.imm = parse_imm(line_no, ops[2]);
        break;
      case Op::Lui:
        need(2);
        ins.rd = parse_reg(line_no, ops[0]);
        ins.imm = parse_imm(line_no, ops[1]);
        break;
      case Op::Lw: case Op::Sw:
        need(2);
        ins.rd = parse_reg(line_no, ops[0]);  // value register
        parse_mem(line_no, ops[1], ins.imm, ins.rs);
        break;
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
        need(3);
        ins.rs = parse_reg(line_no, ops[0]);
        ins.rt = parse_reg(line_no, ops[1]);
        if (is_label_ref(ops[2]))
          pending.push_back({prog.code.size(), ops[2], line_no});
        else
          ins.imm = parse_imm(line_no, ops[2]);
        break;
      case Op::J: case Op::Jal:
        need(1);
        if (is_label_ref(ops[0]))
          pending.push_back({prog.code.size(), ops[0], line_no});
        else
          ins.imm = parse_imm(line_no, ops[0]);
        break;
      case Op::Jr:
        need(1);
        ins.rs = parse_reg(line_no, ops[0]);
        break;
      case Op::Si:
        need(4);
        ins.si_name = ops[0];
        ins.rd = parse_reg(line_no, ops[1]);
        ins.rs = parse_reg(line_no, ops[2]);
        ins.rt = parse_reg(line_no, ops[3]);
        break;
      case Op::Forecast:
        need(2);
        ins.si_name = ops[0];
        ins.imm = parse_imm(line_no, ops[1]);
        break;
      case Op::Release:
        need(1);
        ins.si_name = ops[0];
        break;
      case Op::Print:
        need(1);
        ins.rs = parse_reg(line_no, ops[0]);
        break;
      case Op::Nop: case Op::Halt:
        need(0);
        break;
    }
    prog.code.push_back(std::move(ins));
  }

  for (const auto& p : pending) {
    const auto it = labels.find(p.label);
    if (it == labels.end())
      throw AsmError(p.line, "undefined label: '" + p.label + "'");
    prog.code[p.instr].imm = static_cast<std::int32_t>(it->second);
  }
  if (prog.code.empty()) throw AsmError(line_no, "empty program");
  return prog;
}

Program assemble(const std::string& source) {
  std::istringstream in(source);
  return assemble(in);
}

}  // namespace rispp::dlx
