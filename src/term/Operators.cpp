//===- term/Operators.cpp -------------------------------------------------===//

#include "term/Operators.h"

#include <cstdint>

using namespace awam;

namespace {

struct OpEntry {
  std::string_view Name;
  OpDef Def;
};

/// No operator name is longer than this, so a longer atom (most atoms in
/// a program) is rejected without a table scan.
constexpr size_t kMaxOpLength = 3;

/// Packs a name of at most kMaxOpLength characters and its length into
/// one word, so a table probe is one integer comparison.
constexpr uint32_t pack(std::string_view Name) {
  uint32_t Key = static_cast<uint32_t>(Name.size()) << 24;
  for (size_t I = 0; I != Name.size(); ++I)
    Key |= static_cast<uint32_t>(static_cast<unsigned char>(Name[I]))
           << (8 * I);
  return Key;
}

template <size_t N> struct PackedTable {
  uint32_t Keys[N];
  OpDef Defs[N];

  std::optional<OpDef> find(std::string_view Name) const {
    if (Name.size() > kMaxOpLength)
      return std::nullopt;
    uint32_t Key = pack(Name);
    for (size_t I = 0; I != N; ++I)
      if (Keys[I] == Key)
        return Defs[I];
    return std::nullopt;
  }
};

template <size_t N>
constexpr PackedTable<N> packTable(const OpEntry (&Table)[N]) {
  PackedTable<N> P{};
  for (size_t I = 0; I != N; ++I) {
    if (Table[I].Name.size() > kMaxOpLength)
      throw "operator name longer than kMaxOpLength";
    P.Keys[I] = pack(Table[I].Name);
    P.Defs[I] = Table[I].Def;
  }
  return P;
}

constexpr OpEntry InfixTable[] = {
    {":-", {1200, OpType::XFX}},
    {"-->", {1200, OpType::XFX}},
    {";", {1100, OpType::XFY}},
    {"->", {1050, OpType::XFY}},
    {",", {1000, OpType::XFY}},
    {"=", {700, OpType::XFX}},
    {"\\=", {700, OpType::XFX}},
    {"==", {700, OpType::XFX}},
    {"\\==", {700, OpType::XFX}},
    {"@<", {700, OpType::XFX}},
    {"@>", {700, OpType::XFX}},
    {"@=<", {700, OpType::XFX}},
    {"@>=", {700, OpType::XFX}},
    {"=..", {700, OpType::XFX}},
    {"is", {700, OpType::XFX}},
    {"=:=", {700, OpType::XFX}},
    {"=\\=", {700, OpType::XFX}},
    {"<", {700, OpType::XFX}},
    {">", {700, OpType::XFX}},
    {"=<", {700, OpType::XFX}},
    {">=", {700, OpType::XFX}},
    {"+", {500, OpType::YFX}},
    {"-", {500, OpType::YFX}},
    {"/\\", {500, OpType::YFX}},
    {"\\/", {500, OpType::YFX}},
    {"xor", {500, OpType::YFX}},
    {"*", {400, OpType::YFX}},
    {"/", {400, OpType::YFX}},
    {"//", {400, OpType::YFX}},
    {"mod", {400, OpType::YFX}},
    {"rem", {400, OpType::YFX}},
    {"<<", {400, OpType::YFX}},
    {">>", {400, OpType::YFX}},
    {"**", {200, OpType::XFX}},
    {"^", {200, OpType::XFY}},
};

constexpr OpEntry PrefixTable[] = {
    {":-", {1200, OpType::FX}},
    {"?-", {1200, OpType::FX}},
    {"\\+", {900, OpType::FY}},
    {"-", {200, OpType::FY}},
    {"+", {200, OpType::FY}},
    {"\\", {200, OpType::FY}},
};

constexpr auto Infix = packTable(InfixTable);
constexpr auto Prefix = packTable(PrefixTable);

} // namespace

std::optional<OpDef> awam::lookupInfixOp(std::string_view Name) {
  return Infix.find(Name);
}

std::optional<OpDef> awam::lookupPrefixOp(std::string_view Name) {
  return Prefix.find(Name);
}
