#include "oocc/hpf/parser.hpp"

#include <string>

#include "oocc/hpf/lexer.hpp"
#include "oocc/util/error.hpp"

namespace oocc::hpf {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program run() {
    Program program;
    skip_eols();
    while (!at(TokenKind::kEof)) {
      if (peek().is_keyword("end") && !peek_ahead_is_loop_end()) {
        advance();
        skip_eols();
        break;
      }
      parse_line(program);
      skip_eols();
    }
    return program;
  }

 private:
  // ------------------------------------------------------------ helpers --

  const Token& peek(std::size_t off = 0) const {
    const std::size_t i = std::min(pos_ + off, tokens_.size() - 1);
    return tokens_[i];
  }

  bool at(TokenKind kind) const { return peek().kind == kind; }

  const Token& advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) {
      ++pos_;
    }
    return t;
  }

  [[noreturn]] void fail(const std::string& what) const {
    const Token& t = peek();
    OOCC_THROW(ErrorCode::kParseError,
               what << " at line " << t.line << ", column " << t.column
                    << " (found " << token_kind_name(t.kind)
                    << (t.text.empty() ? "" : " '" + t.text + "'") << ")");
  }

  const Token& expect(TokenKind kind, const char* what) {
    if (!at(kind)) {
      fail(std::string("expected ") + what);
    }
    return advance();
  }

  std::string expect_identifier(const char* what) {
    if (!at(TokenKind::kIdentifier)) {
      fail(std::string("expected ") + what);
    }
    return advance().text;
  }

  void expect_keyword(std::string_view kw) {
    if (!peek().is_keyword(kw)) {
      fail("expected keyword '" + std::string(kw) + "'");
    }
    advance();
  }

  void expect_eol() {
    if (at(TokenKind::kEof)) {
      return;
    }
    expect(TokenKind::kEol, "end of line");
  }

  void skip_eols() {
    while (at(TokenKind::kEol)) {
      advance();
    }
  }

  /// Distinguishes the program-terminating 'end' from 'end do'/'end forall'
  /// (the latter are consumed inside loop bodies; seeing one here is an
  /// error reported by the loop parser path).
  bool peek_ahead_is_loop_end() const {
    return peek(1).is_keyword("do") || peek(1).is_keyword("forall");
  }

  // -------------------------------------------------------------- lines --

  void parse_line(Program& program) {
    if (at(TokenKind::kDirective)) {
      parse_directive(program);
      return;
    }
    if (peek().is_keyword("parameter")) {
      parse_parameter(program);
      return;
    }
    if (peek().is_keyword("real") || peek().is_keyword("integer") ||
        peek().is_keyword("double")) {
      parse_decl_line(program);
      return;
    }
    program.stmts.push_back(parse_stmt());
  }

  void parse_parameter(Program& program) {
    advance();  // 'parameter'
    expect(TokenKind::kLParen, "'('");
    for (;;) {
      const std::string name = expect_identifier("parameter name");
      expect(TokenKind::kAssign, "'='");
      const Token& value = expect(TokenKind::kInteger, "integer value");
      OOCC_CHECK(!program.parameters.contains(name), ErrorCode::kParseError,
                 "duplicate parameter '" << name << "' at line " << value.line);
      program.parameters[name] = value.int_value;
      if (at(TokenKind::kComma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::kRParen, "')'");
    expect_eol();
  }

  void parse_decl_line(Program& program) {
    const Token& type_tok = advance();  // type keyword
    if (type_tok.is_keyword("double")) {
      // Accept 'double precision'.
      if (peek().is_keyword("precision")) {
        advance();
      }
    }
    for (;;) {
      ArrayDecl decl;
      decl.line = peek().line;
      decl.name = expect_identifier("array name");
      expect(TokenKind::kLParen, "'('");
      decl.extents.push_back(parse_expr());
      if (at(TokenKind::kComma)) {
        advance();
        decl.extents.push_back(parse_expr());
      }
      OOCC_CHECK(decl.extents.size() <= 2, ErrorCode::kParseError,
                 "arrays of rank > 2 are not supported (line " << decl.line
                                                               << ")");
      expect(TokenKind::kRParen, "')'");
      program.arrays.push_back(std::move(decl));
      if (at(TokenKind::kComma)) {
        advance();
        continue;
      }
      break;
    }
    expect_eol();
  }

  // --------------------------------------------------------- directives --

  void parse_directive(Program& program) {
    advance();  // '!hpf$'
    if (peek().is_keyword("processors")) {
      advance();
      ProcessorsDirective d;
      d.line = peek().line;
      d.name = expect_identifier("processors arrangement name");
      expect(TokenKind::kLParen, "'('");
      d.count = parse_expr();
      expect(TokenKind::kRParen, "')'");
      OOCC_CHECK(!program.processors.has_value(), ErrorCode::kParseError,
                 "duplicate PROCESSORS directive at line " << d.line);
      program.processors = std::move(d);
    } else if (peek().is_keyword("template")) {
      advance();
      TemplateDirective d;
      d.line = peek().line;
      d.name = expect_identifier("template name");
      expect(TokenKind::kLParen, "'('");
      d.extent = parse_expr();
      expect(TokenKind::kRParen, "')'");
      program.templates.push_back(std::move(d));
    } else if (peek().is_keyword("distribute")) {
      advance();
      parse_distribute(program);
    } else if (peek().is_keyword("align")) {
      advance();
      parse_align(program);
    } else {
      fail("unknown HPF directive");
    }
    expect_eol();
  }

  void parse_distribute(Program& program) {
    DistributeDirective d;
    d.line = peek().line;
    d.template_name = expect_identifier("template name");
    expect(TokenKind::kLParen, "'('");
    if (peek().is_keyword("block")) {
      advance();
      d.kind = DistSpecKind::kBlock;
      // HPF allows BLOCK(k); treat as block-cyclic with that block size,
      // which equals BLOCK when k >= ceil(N/P).
      if (at(TokenKind::kLParen)) {
        advance();
        d.kind = DistSpecKind::kBlockCyclic;
        d.block = parse_expr();
        expect(TokenKind::kRParen, "')'");
      }
    } else if (peek().is_keyword("cyclic")) {
      advance();
      d.kind = DistSpecKind::kCyclic;
      if (at(TokenKind::kLParen)) {
        advance();
        d.kind = DistSpecKind::kBlockCyclic;
        d.block = parse_expr();
        expect(TokenKind::kRParen, "')'");
      }
    } else {
      fail("expected BLOCK or CYCLIC");
    }
    expect(TokenKind::kRParen, "')'");
    if (peek().is_keyword("onto") || peek().is_keyword("on")) {
      advance();
      d.processors_name = expect_identifier("processors arrangement name");
    }
    program.distributes.push_back(std::move(d));
  }

  void parse_align(Program& program) {
    AlignDirective d;
    d.line = peek().line;
    expect(TokenKind::kLParen, "'('");
    for (;;) {
      if (at(TokenKind::kStar)) {
        advance();
        d.dims.push_back(AlignDim::kStar);
      } else if (at(TokenKind::kColon)) {
        advance();
        d.dims.push_back(AlignDim::kColon);
      } else {
        fail("expected '*' or ':' in align spec");
      }
      if (at(TokenKind::kComma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::kRParen, "')'");
    expect_keyword("with");
    d.template_name = expect_identifier("template name");
    expect(TokenKind::kDoubleColon, "'::'");
    for (;;) {
      d.arrays.push_back(expect_identifier("array name"));
      if (at(TokenKind::kComma)) {
        advance();
        continue;
      }
      break;
    }
    program.aligns.push_back(std::move(d));
  }

  // ------------------------------------------------------------- stmts --

  StmtPtr parse_stmt() {
    if (peek().is_keyword("do")) {
      return parse_do();
    }
    if (peek().is_keyword("forall")) {
      return parse_forall();
    }
    return parse_assign();
  }

  std::vector<StmtPtr> parse_body_until_end(const char* end_kw) {
    std::vector<StmtPtr> body;
    skip_eols();
    while (!(peek().is_keyword("end") && peek(1).is_keyword(end_kw))) {
      OOCC_CHECK(!at(TokenKind::kEof), ErrorCode::kParseError,
                 "unexpected end of file inside '" << end_kw << "' body");
      body.push_back(parse_stmt());
      skip_eols();
    }
    advance();  // 'end'
    advance();  // end_kw
    expect_eol();
    return body;
  }

  StmtPtr parse_do() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kDo;
    s->line = peek().line;
    advance();  // 'do'
    s->loop_var = expect_identifier("loop variable");
    expect(TokenKind::kAssign, "'='");
    s->lo = parse_expr();
    expect(TokenKind::kComma, "','");
    s->hi = parse_expr();
    expect_eol();
    s->body = parse_body_until_end("do");
    return s;
  }

  StmtPtr parse_forall() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kForall;
    s->line = peek().line;
    advance();  // 'forall'
    expect(TokenKind::kLParen, "'('");
    s->loop_var = expect_identifier("forall index");
    expect(TokenKind::kAssign, "'='");
    s->lo = parse_expr();
    expect(TokenKind::kColon, "':'");
    s->hi = parse_expr();
    expect(TokenKind::kRParen, "')'");
    if (at(TokenKind::kEol)) {
      // Block FORALL: body until 'end forall'.
      advance();
      s->body = parse_body_until_end("forall");
    } else {
      // Single-statement FORALL.
      s->body.push_back(parse_assign());
    }
    return s;
  }

  StmtPtr parse_assign() {
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::kAssign;
    s->line = peek().line;
    operators_ = 0;  // the lhs is a top-level expression of its own
    s->lhs = parse_primary();
    OOCC_CHECK(s->lhs->kind == ExprKind::kArrayRef, ErrorCode::kParseError,
               "assignment target must be an array reference at line "
                   << s->line);
    expect(TokenKind::kAssign, "'='");
    if (peek().is_keyword("sum") && peek(1).kind == TokenKind::kLParen) {
      s->rhs = parse_sum();
    } else {
      s->rhs = parse_expr();
    }
    expect_eol();
    return s;
  }

  ExprPtr parse_sum() {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kSumIntrinsic;
    e->line = peek().line;
    advance();  // 'sum'
    expect(TokenKind::kLParen, "'('");
    e->name = expect_identifier("array name");
    expect(TokenKind::kComma, "','");
    const Token& dim = expect(TokenKind::kInteger, "reduction dimension");
    e->int_value = dim.int_value;
    OOCC_CHECK(dim.int_value == 1 || dim.int_value == 2,
               ErrorCode::kParseError,
               "SUM dimension must be 1 or 2, got " << dim.int_value
                                                    << " at line " << dim.line);
    expect(TokenKind::kRParen, "')'");
    return e;
  }

  // -------------------------------------------------------------- exprs --

  ExprPtr parse_expr() {
    if (nesting_ == 0) {
      operators_ = 0;  // a top-level expression
    }
    ExprPtr lhs = parse_term();
    while (at(TokenKind::kPlus) || at(TokenKind::kMinus)) {
      const BinOp op =
          at(TokenKind::kPlus) ? BinOp::kAdd : BinOp::kSub;
      const int line = peek().line;
      count_operator();
      advance();
      lhs = make_binary(op, std::move(lhs), parse_term(), line);
    }
    return lhs;
  }

  ExprPtr parse_term() {
    ExprPtr lhs = parse_primary();
    while (at(TokenKind::kStar) || at(TokenKind::kSlash)) {
      const BinOp op = at(TokenKind::kStar) ? BinOp::kMul : BinOp::kDiv;
      const int line = peek().line;
      count_operator();
      advance();
      lhs = make_binary(op, std::move(lhs), parse_primary(), line);
    }
    return lhs;
  }

  // Every nesting (parentheses, unary minus, subscripts) recurses through
  // parse_primary, so capping its depth bounds the parser's stack. A flat
  // chain `x+x+...` nests one tree level per operator, so capping the
  // binary operators of a top-level expression too bounds the depth of the
  // trees every later pass walks recursively.
  static constexpr int kMaxNesting = 256;
  static constexpr int kMaxOperators = 4096;

  void count_operator() {
    if (++operators_ > kMaxOperators) {
      fail("expression has more than " + std::to_string(kMaxOperators) +
           " binary operators");
    }
  }

  ExprPtr parse_primary() {
    if (nesting_ == kMaxNesting) {
      fail("expression nested more than " + std::to_string(kMaxNesting) +
           " levels deep");
    }
    ++nesting_;
    ExprPtr e = parse_operand();
    --nesting_;
    return e;
  }

  ExprPtr parse_operand() {
    if (at(TokenKind::kInteger)) {
      const Token& t = advance();
      return make_int(t.int_value, t.line);
    }
    if (at(TokenKind::kMinus)) {
      const int line = peek().line;
      count_operator();
      advance();
      return make_binary(BinOp::kSub, make_int(0, line), parse_primary(),
                         line);
    }
    if (at(TokenKind::kLParen)) {
      advance();
      ExprPtr inner = parse_expr();
      expect(TokenKind::kRParen, "')'");
      return inner;
    }
    if (at(TokenKind::kIdentifier)) {
      const Token& t = advance();
      if (!at(TokenKind::kLParen)) {
        return make_var(t.text, t.line);
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kArrayRef;
      e->name = t.text;
      e->line = t.line;
      advance();  // '('
      for (;;) {
        e->subscripts.push_back(parse_subscript());
        if (at(TokenKind::kComma)) {
          advance();
          continue;
        }
        break;
      }
      expect(TokenKind::kRParen, "')'");
      OOCC_CHECK(e->subscripts.size() <= 2, ErrorCode::kParseError,
                 "references of rank > 2 are not supported at line "
                     << e->line);
      return e;
    }
    fail("expected expression");
  }

  Subscript parse_subscript() {
    Subscript s;
    if (at(TokenKind::kColon)) {
      advance();
      s.kind = SubscriptKind::kFull;
      return s;
    }
    ExprPtr first = parse_expr();
    if (at(TokenKind::kColon)) {
      advance();
      s.kind = SubscriptKind::kRange;
      s.lo = std::move(first);
      s.hi = parse_expr();
      return s;
    }
    s.kind = SubscriptKind::kScalar;
    s.scalar = std::move(first);
    return s;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int nesting_ = 0;  ///< parse_primary calls in progress
  int operators_ = 0;  ///< binary operators of the current top-level expression
};

}  // namespace

Program parse(std::string_view source) {
  return Parser(lex(source)).run();
}

}  // namespace oocc::hpf
