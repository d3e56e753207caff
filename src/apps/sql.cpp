#include "apps/sql.h"

#include <cctype>
#include <cstring>

namespace apps {

// ---- tokenizer --------------------------------------------------------------------

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view sql) : sql_(sql) {}

  // Next token: identifier/keyword (uppercased), number, quoted string, or a
  // single punctuation char. Empty string at end.
  std::string Next();
  std::string Peek();
  bool Expect(std::string_view token);  // consumes iff it matches (ci)

  // Last token's kind.
  bool last_was_string() const { return last_was_string_; }

 private:
  void SkipSpace();
  std::string_view sql_;
  std::size_t pos_ = 0;
  bool last_was_string_ = false;
};

void Tokenizer::SkipSpace() {
  while (pos_ < sql_.size() && std::isspace(static_cast<unsigned char>(sql_[pos_]))) {
    ++pos_;
  }
}

std::string Tokenizer::Peek() {
  std::size_t saved = pos_;
  bool saved_str = last_was_string_;
  std::string tok = Next();
  pos_ = saved;
  last_was_string_ = saved_str;
  return tok;
}

std::string Tokenizer::Next() {
  SkipSpace();
  last_was_string_ = false;
  if (pos_ >= sql_.size()) {
    return "";
  }
  char c = sql_[pos_];
  if (c == '\'') {
    // Quoted string with '' escaping.
    ++pos_;
    std::string out;
    while (pos_ < sql_.size()) {
      if (sql_[pos_] == '\'') {
        if (pos_ + 1 < sql_.size() && sql_[pos_ + 1] == '\'') {
          out += '\'';
          pos_ += 2;
          continue;
        }
        ++pos_;
        break;
      }
      out += sql_[pos_++];
    }
    last_was_string_ = true;
    return out;
  }
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
    std::string out;
    while (pos_ < sql_.size() &&
           (std::isalnum(static_cast<unsigned char>(sql_[pos_])) || sql_[pos_] == '_')) {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(sql_[pos_])));
      ++pos_;
    }
    return out;
  }
  if (std::isdigit(static_cast<unsigned char>(c)) ||
      (c == '-' && pos_ + 1 < sql_.size() &&
       std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
    std::string out;
    out += sql_[pos_++];
    while (pos_ < sql_.size() && std::isdigit(static_cast<unsigned char>(sql_[pos_]))) {
      out += sql_[pos_++];
    }
    return out;
  }
  // Two-char operators.
  if ((c == '<' || c == '>' || c == '!') && pos_ + 1 < sql_.size() &&
      sql_[pos_ + 1] == '=') {
    pos_ += 2;
    return std::string{c, '='};
  }
  ++pos_;
  return std::string(1, c);
}

bool Tokenizer::Expect(std::string_view token) {
  std::size_t saved = pos_;
  std::string got = Next();
  if (got == token) {
    return true;
  }
  pos_ = saved;
  return false;
}

// ---- row serialization --------------------------------------------------------------

std::vector<std::byte> Database::SerializeRow(const SqlRow& row) const {
  std::vector<std::byte> out;
  auto put_u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::byte>(v >> (8 * i)));
    }
  };
  put_u32(static_cast<std::uint32_t>(row.values.size()));
  for (const SqlValue& v : row.values) {
    if (std::holds_alternative<std::int64_t>(v)) {
      out.push_back(std::byte{0});
      std::int64_t n = std::get<std::int64_t>(v);
      for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::byte>(static_cast<std::uint64_t>(n) >> (8 * i)));
      }
    } else {
      out.push_back(std::byte{1});
      const std::string& s = std::get<std::string>(v);
      put_u32(static_cast<std::uint32_t>(s.size()));
      for (char c : s) {
        out.push_back(static_cast<std::byte>(c));
      }
    }
  }
  return out;
}

SqlRow Database::DeserializeRow(std::span<const std::byte> data) const {
  SqlRow row;
  std::size_t pos = 0;
  auto get_u32 = [&data, &pos]() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    }
    return v;
  };
  std::uint32_t n = get_u32();
  for (std::uint32_t i = 0; i < n && pos < data.size(); ++i) {
    std::byte tag = data[pos++];
    if (tag == std::byte{0}) {
      std::uint64_t v = 0;
      for (int b = 0; b < 8; ++b) {
        v |= static_cast<std::uint64_t>(data[pos++]) << (8 * b);
      }
      row.values.emplace_back(static_cast<std::int64_t>(v));
    } else {
      std::uint32_t len = get_u32();
      std::string s;
      s.reserve(len);
      for (std::uint32_t b = 0; b < len; ++b) {
        s += static_cast<char>(data[pos++]);
      }
      row.values.emplace_back(std::move(s));
    }
  }
  return row;
}

// ---- statements -----------------------------------------------------------------------

Database::~Database() {
  for (void* p : scratch_) {
    alloc_->Free(p);
  }
}

void Database::StatementScratch() {
  // Rotate a ring of size-varied short-lived buffers (statement compilation,
  // cursor state, sort scratch). Frees land out of allocation order, which
  // fragments naive free lists as the run gets longer.
  std::size_t slot = stmt_counter_ % kScratchRing;
  if (scratch_[slot] != nullptr) {
    alloc_->Free(scratch_[slot]);
  }
  std::size_t size = 64 + (stmt_counter_ * 37) % 1024;
  scratch_[slot] = alloc_->Malloc(size);
  ++stmt_counter_;
}

SqlResult Database::Execute(std::string_view sql) {
  StatementScratch();
  Tokenizer tok(sql);
  std::string verb = tok.Next();
  if (verb == "CREATE") {
    return Create(tok);
  }
  if (verb == "INSERT") {
    return Insert(tok);
  }
  if (verb == "SELECT") {
    return Select(tok);
  }
  if (verb == "DELETE") {
    return Delete(tok);
  }
  if (verb == "BEGIN" || verb == "COMMIT" || verb == "END") {
    return SqlResult{.ok = true};  // autocommit engine: transactions are no-ops
  }
  return SqlResult{.ok = false, .error = "unsupported statement: " + verb};
}

SqlResult Database::Create(Tokenizer& tok) {
  if (!tok.Expect("TABLE")) {
    return {.ok = false, .error = "expected TABLE"};
  }
  std::string name = tok.Next();
  if (name.empty() || tables_.contains(name)) {
    return {.ok = false, .error = "bad or duplicate table name"};
  }
  if (!tok.Expect("(")) {
    return {.ok = false, .error = "expected ("};
  }
  Table table;
  for (;;) {
    std::string col = tok.Next();
    if (col.empty()) {
      return {.ok = false, .error = "unterminated column list"};
    }
    std::string type = tok.Next();
    Column column;
    column.name = col;
    column.is_text = type == "TEXT" || type == "VARCHAR" || type == "CHAR";
    // Swallow type decorations like (255) and PRIMARY KEY.
    while (true) {
      std::string p = tok.Peek();
      if (p == "," || p == ")" || p.empty()) {
        break;
      }
      tok.Next();
    }
    table.columns.push_back(std::move(column));
    if (tok.Expect(")")) {
      break;
    }
    if (!tok.Expect(",")) {
      return {.ok = false, .error = "expected , or )"};
    }
  }
  table.index = std::make_unique<BTree>(alloc_);
  tables_.emplace(name, std::move(table));
  return {.ok = true};
}

SqlResult Database::Insert(Tokenizer& tok) {
  if (!tok.Expect("INTO")) {
    return {.ok = false, .error = "expected INTO"};
  }
  std::string name = tok.Next();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return {.ok = false, .error = "no such table: " + name};
  }
  Table& table = it->second;
  if (!tok.Expect("VALUES") || !tok.Expect("(")) {
    return {.ok = false, .error = "expected VALUES ("};
  }
  SqlRow row;
  for (;;) {
    std::string v = tok.Next();
    if (tok.last_was_string()) {
      row.values.emplace_back(v);
    } else if (!v.empty() && (std::isdigit(static_cast<unsigned char>(v[0])) ||
                              v[0] == '-')) {
      row.values.emplace_back(static_cast<std::int64_t>(std::strtoll(v.c_str(),
                                                                     nullptr, 10)));
    } else if (v == "NULL") {
      row.values.emplace_back(std::int64_t{0});
    } else {
      return {.ok = false, .error = "bad literal: " + v};
    }
    if (tok.Expect(")")) {
      break;
    }
    if (!tok.Expect(",")) {
      return {.ok = false, .error = "expected , or )"};
    }
  }
  if (row.values.size() != table.columns.size()) {
    return {.ok = false, .error = "column count mismatch"};
  }
  // Key = first integer column value, or an auto key.
  std::int64_t key;
  if (!table.columns.empty() && !table.columns[0].is_text &&
      std::holds_alternative<std::int64_t>(row.values[0])) {
    key = std::get<std::int64_t>(row.values[0]);
  } else {
    key = table.auto_key++;
  }
  std::vector<std::byte> payload = SerializeRow(row);
  if (!table.index->Insert(key, payload)) {
    return {.ok = false, .error = "database full"};
  }
  return {.ok = true, .rows_affected = 1};
}

namespace {

struct Where {
  bool present = false;
  std::string op;  // "=", "<", ">", "<=", ">="
  std::int64_t value = 0;
};

bool ParseWhere(Tokenizer& tok, Where* where, std::string* error) {
  if (!tok.Expect("WHERE")) {
    return true;  // no WHERE clause
  }
  where->present = true;
  tok.Next();  // column name (always the pk in this subset)
  where->op = tok.Next();
  std::string v = tok.Next();
  if (where->op.empty() || v.empty()) {
    *error = "malformed WHERE";
    return false;
  }
  where->value = std::strtoll(v.c_str(), nullptr, 10);
  return true;
}

}  // namespace

SqlResult Database::Select(Tokenizer& tok) {
  // Column list: '*' or names (projection applied by index lookup).
  std::vector<std::string> cols;
  for (;;) {
    std::string c = tok.Next();
    if (c == "*") {
      // all columns
    } else {
      cols.push_back(c);
    }
    if (!tok.Expect(",")) {
      break;
    }
  }
  if (!tok.Expect("FROM")) {
    return {.ok = false, .error = "expected FROM"};
  }
  std::string name = tok.Next();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return {.ok = false, .error = "no such table: " + name};
  }
  Table& table = it->second;
  Where where;
  std::string error;
  if (!ParseWhere(tok, &where, &error)) {
    return {.ok = false, .error = error};
  }

  SqlResult result;
  result.ok = true;
  auto emit = [&](std::int64_t, BTree::Payload payload) {
    SqlRow row = DeserializeRow(std::span(payload.data, payload.len));
    if (!cols.empty()) {
      SqlRow projected;
      for (const std::string& want : cols) {
        for (std::size_t ci = 0; ci < table.columns.size(); ++ci) {
          if (table.columns[ci].name == want && ci < row.values.size()) {
            projected.values.push_back(row.values[ci]);
          }
        }
      }
      result.rows.push_back(std::move(projected));
    } else {
      result.rows.push_back(std::move(row));
    }
    return true;
  };

  if (where.present && where.op == "=") {
    auto payload = table.index->Find(where.value);
    if (payload.has_value()) {
      emit(where.value, *payload);
    }
    return result;
  }
  std::int64_t lo = INT64_MIN;
  std::int64_t hi = INT64_MAX;
  if (where.present) {
    if (where.op == "<") {
      hi = where.value - 1;
    } else if (where.op == "<=") {
      hi = where.value;
    } else if (where.op == ">") {
      lo = where.value + 1;
    } else if (where.op == ">=") {
      lo = where.value;
    }
  }
  table.index->Scan(lo, hi, emit);
  return result;
}

SqlResult Database::Delete(Tokenizer& tok) {
  if (!tok.Expect("FROM")) {
    return {.ok = false, .error = "expected FROM"};
  }
  std::string name = tok.Next();
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return {.ok = false, .error = "no such table: " + name};
  }
  Where where;
  std::string error;
  if (!ParseWhere(tok, &where, &error)) {
    return {.ok = false, .error = error};
  }
  SqlResult result;
  result.ok = true;
  if (where.present && where.op == "=") {
    result.rows_affected = it->second.index->Erase(where.value) ? 1 : 0;
    return result;
  }
  // Range delete: collect keys then erase.
  std::vector<std::int64_t> keys;
  std::int64_t lo = INT64_MIN;
  std::int64_t hi = INT64_MAX;
  if (where.present) {
    if (where.op == "<") {
      hi = where.value - 1;
    } else if (where.op == "<=") {
      hi = where.value;
    } else if (where.op == ">") {
      lo = where.value + 1;
    } else if (where.op == ">=") {
      lo = where.value;
    }
  }
  it->second.index->Scan(lo, hi, [&keys](std::int64_t k, BTree::Payload) {
    keys.push_back(k);
    return true;
  });
  for (std::int64_t k : keys) {
    if (it->second.index->Erase(k)) {
      ++result.rows_affected;
    }
  }
  return result;
}

}  // namespace apps
