// Tests for the HPF front end: lexer, parser, AST utilities, alignment
// resolution, and semantic analysis of the Figure 3 program.
#include <gtest/gtest.h>

#include "oocc/hpf/align.hpp"
#include "oocc/hpf/lexer.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/hpf/programs.hpp"
#include "oocc/hpf/sema.hpp"
#include "oocc/util/error.hpp"

namespace oocc::hpf {
namespace {

// ------------------------------------------------------------------ lexer

TEST(LexerTest, TokenizesIdentifiersAndIntegers) {
  const auto toks = lex("do j=1, 64\n");
  ASSERT_GE(toks.size(), 7u);
  EXPECT_TRUE(toks[0].is_keyword("do"));
  EXPECT_EQ(toks[1].text, "j");
  EXPECT_EQ(toks[2].kind, TokenKind::kAssign);
  EXPECT_EQ(toks[3].int_value, 1);
  EXPECT_EQ(toks[4].kind, TokenKind::kComma);
  EXPECT_EQ(toks[5].int_value, 64);
  EXPECT_EQ(toks[6].kind, TokenKind::kEol);
}

TEST(LexerTest, CaseInsensitiveIdentifiers) {
  const auto toks = lex("FORALL Temp SUM\n");
  EXPECT_EQ(toks[0].text, "forall");
  EXPECT_EQ(toks[1].text, "temp");
  EXPECT_EQ(toks[2].text, "sum");
}

TEST(LexerTest, DirectiveSentinelRecognized) {
  const auto toks = lex("!hpf$ processors Pr(4)\n!HPF$ template d(8)\n");
  EXPECT_EQ(toks[0].kind, TokenKind::kDirective);
  int directives = 0;
  for (const auto& t : toks) {
    directives += t.kind == TokenKind::kDirective ? 1 : 0;
  }
  EXPECT_EQ(directives, 2);
}

TEST(LexerTest, PlainCommentsSkipped) {
  const auto toks = lex("! just words\nC classic comment line\n  x(1) = 2\n");
  // Only the assignment line produces tokens (plus EOF).
  EXPECT_TRUE(toks[0].is_keyword("x"));
}

TEST(LexerTest, TrailingCommentStripped) {
  const auto toks = lex("x(1) = 2 ! set x\n");
  bool found_comment_word = false;
  for (const auto& t : toks) {
    if (t.text == "set") found_comment_word = true;
  }
  EXPECT_FALSE(found_comment_word);
}

TEST(LexerTest, DoubleColonToken) {
  const auto toks = lex(":: a, b\n");
  EXPECT_EQ(toks[0].kind, TokenKind::kDoubleColon);
}

TEST(LexerTest, IllegalCharacterThrows) {
  try {
    lex("x = @\n");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(LexerTest, LineNumbersTracked) {
  const auto toks = lex("a(1) = 2\n\nb(1) = 3\n");
  EXPECT_EQ(toks[0].line, 1);
  Token b_tok;
  for (const auto& t : toks) {
    if (t.text == "b") b_tok = t;
  }
  EXPECT_EQ(b_tok.line, 3);
}

// ----------------------------------------------------------------- parser

TEST(ParserTest, ParsesFigure3Program) {
  const Program p = parse(gaxpy_source(64, 4));
  EXPECT_EQ(p.parameters.at("n"), 64);
  EXPECT_EQ(p.parameters.at("nprocs"), 4);
  ASSERT_EQ(p.arrays.size(), 4u);
  EXPECT_EQ(p.arrays[0].name, "a");
  ASSERT_TRUE(p.processors.has_value());
  EXPECT_EQ(p.processors->name, "pr");
  ASSERT_EQ(p.templates.size(), 1u);
  ASSERT_EQ(p.distributes.size(), 1u);
  EXPECT_EQ(p.distributes[0].kind, DistSpecKind::kBlock);
  ASSERT_EQ(p.aligns.size(), 2u);
  EXPECT_EQ(p.aligns[0].arrays.size(), 3u);
  EXPECT_EQ(p.aligns[0].dims[0], AlignDim::kStar);
  EXPECT_EQ(p.aligns[0].dims[1], AlignDim::kColon);
  EXPECT_EQ(p.aligns[1].dims[0], AlignDim::kColon);
  ASSERT_EQ(p.stmts.size(), 1u);
  const Stmt& outer = *p.stmts[0];
  EXPECT_EQ(outer.kind, StmtKind::kDo);
  EXPECT_EQ(outer.loop_var, "j");
  ASSERT_EQ(outer.body.size(), 2u);
  EXPECT_EQ(outer.body[0]->kind, StmtKind::kForall);
  EXPECT_EQ(outer.body[1]->kind, StmtKind::kAssign);
  EXPECT_EQ(outer.body[1]->rhs->kind, ExprKind::kSumIntrinsic);
  EXPECT_EQ(outer.body[1]->rhs->int_value, 2);
}

TEST(ParserTest, SingleStatementForall) {
  const Program p = parse(
      "real x(8,8)\n"
      "forall (k=1:8) x(1:8,k) = 1\n"
      "end\n");
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0]->kind, StmtKind::kForall);
  ASSERT_EQ(p.stmts[0]->body.size(), 1u);
}

TEST(ParserTest, ExpressionPrecedence) {
  const Program p = parse(
      "real x(4,4)\n"
      "forall (k=1:4) x(1:4,k) = 1 + 2*3 - 4/2\n"
      "end\n");
  const Expr& rhs = *p.stmts[0]->body[0]->rhs;
  // ((1 + (2*3)) - (4/2)) evaluates to 5.
  EXPECT_EQ(evaluate_scalar(rhs, {}), 5);
}

TEST(ParserTest, UnaryMinus) {
  const Program p = parse(
      "real x(4,4)\n"
      "forall (k=1:4) x(1:4,k) = -3 + 5\n"
      "end\n");
  EXPECT_EQ(evaluate_scalar(*p.stmts[0]->body[0]->rhs, {}), 2);
}

TEST(ParserTest, NestingDepthIsCapped) {
  // Past 256 levels, nesting is a structured parse error, not a stack
  // overflow of the recursive-descent parser (100,000 parentheses or
  // unary minuses).
  const auto assignment = [](int depth) {
    return "real x(4,4)\nforall (k=1:4) x(1:4,k) = " +
           std::string(static_cast<std::size_t>(depth), '(') + "1" +
           std::string(static_cast<std::size_t>(depth), ')') + "\nend\n";
  };
  EXPECT_EQ(evaluate_scalar(*parse(assignment(200)).stmts[0]->body[0]->rhs,
                            {}),
            1);
  for (const std::string& src :
       {assignment(100000),
        "real x(4,4)\nforall (k=1:4) x(1:4,k) = " + std::string(100000, '-') +
            "1\nend\n"}) {
    try {
      parse(src);
      FAIL() << "deep nesting parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError);
      EXPECT_NE(std::string(e.what()).find("256 levels"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParserTest, OperatorChainIsCapped) {
  // A flat chain builds a tree one level deeper per operator. Past 4,096
  // binary operators in one expression it is a structured parse error, not
  // a stack overflow in a later recursive tree walk.
  const auto chain = [](int operators) {
    std::string rhs = "x(1:4,k)";
    for (int i = 0; i < operators; ++i) {
      rhs += i % 2 == 0 ? "+x(1:4,k)" : "*2";
    }
    return rhs;
  };
  const auto program = [](const std::string& body) {
    return "real x(4,4), y(4,4)\nforall (k=1:4)\n" + body +
           "end forall\nend\n";
  };
  const Program ok = parse(program("y(1:4,k) = " + chain(4096) + "\n"));
  EXPECT_EQ(count_binary_ops(*ok.stmts[0]->body[0]->rhs), 4096);
  for (const int operators : {4097, 30000}) {
    try {
      parse(program("y(1:4,k) = " + chain(operators) + "\n"));
      FAIL() << operators << " operators parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError);
      EXPECT_NE(std::string(e.what()).find("4096 binary operators"),
                std::string::npos)
          << e.what();
    }
  }
  // Each top-level expression counts afresh: the next statement's lhs
  // subscript and rhs start from zero.
  EXPECT_NO_THROW(parse(program("y(1:4,k) = " + chain(4096) +
                                "\ny(1:2+2,k) = " + chain(4096) + "\n")));
}

TEST(ParserTest, DistributeOnAndOnto) {
  for (const char* word : {"on", "onto"}) {
    const std::string src = std::string("real a(8)\n!hpf$ processors P(2)\n") +
                            "!hpf$ template d(8)\n!hpf$ distribute d(block) " +
                            word + " P\nend\n";
    const Program p = parse(src);
    ASSERT_EQ(p.distributes.size(), 1u);
    EXPECT_EQ(p.distributes[0].processors_name, "p");
  }
}

TEST(ParserTest, CyclicAndBlockCyclicSpecs) {
  const Program p = parse(
      "real a(8), b(8)\n"
      "!hpf$ processors P(2)\n"
      "!hpf$ template t1(8)\n"
      "!hpf$ template t2(8)\n"
      "!hpf$ distribute t1(cyclic) onto P\n"
      "!hpf$ distribute t2(cyclic(3)) onto P\n"
      "end\n");
  EXPECT_EQ(p.distributes[0].kind, DistSpecKind::kCyclic);
  EXPECT_EQ(p.distributes[1].kind, DistSpecKind::kBlockCyclic);
  EXPECT_EQ(evaluate_scalar(*p.distributes[1].block, {}), 3);
}

TEST(ParserTest, MalformedInputsProduceDiagnostics) {
  // Each case names the failure's line in the message.
  const char* cases[] = {
      "do j=1 64\nend do\nend\n",          // missing comma
      "real a(2,2)\na(1,1) =\nend\n",      // missing rhs
      "forall (k=1:4)\n",                  // unterminated forall
      "real a(2,2,2)\nend\n",              // rank 3
      "!hpf$ frobnicate x\nend\n",         // unknown directive
      "parameter (n=1, n=2)\nend\n",       // duplicate parameter
      "real a(2,2)\n1 = a(1,1)\nend\n",    // assignment to non-array
  };
  for (const char* src : cases) {
    EXPECT_THROW(parse(src), Error) << src;
    try {
      parse(src);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError) << src;
    }
  }
}

TEST(ParserTest, RoundTripThroughToString) {
  const Program p = parse(gaxpy_source(32, 2));
  const std::string printed = to_string(p);
  // The printed program must re-parse to an equivalent AST.
  const Program p2 = parse(printed);
  EXPECT_EQ(to_string(p2), printed);
  EXPECT_EQ(p2.parameters.at("n"), 32);
  ASSERT_EQ(p2.stmts.size(), 1u);
}

// -------------------------------------------------------------------- ast

TEST(AstTest, EvaluateScalarErrors) {
  const Program p = parse(
      "real a(4,4)\n"
      "forall (k=1:4) a(1:4,k) = a(1:4,k) * 2\n"
      "end\n");
  // Array reference is not a scalar.
  EXPECT_THROW(evaluate_scalar(*p.stmts[0]->body[0]->rhs, {}), Error);
  // Division by zero.
  auto div = make_binary(BinOp::kDiv, make_int(4), make_int(0));
  EXPECT_THROW(evaluate_scalar(*div, {}), Error);
  // Unbound variable.
  auto var = make_var("ghost");
  EXPECT_THROW(evaluate_scalar(*var, {}), Error);
}

TEST(AstTest, CloneIsDeep) {
  const Program p = parse(
      "real a(4,4), b(4,4)\n"
      "forall (k=1:4) a(1:4,k) = b(1:4,k) * 3 + 1\n"
      "end\n");
  const Expr& rhs = *p.stmts[0]->body[0]->rhs;
  ExprPtr copy = clone_expr(rhs);
  EXPECT_EQ(to_string(*copy), to_string(rhs));
  EXPECT_NE(copy.get(), &rhs);
  EXPECT_NE(copy->lhs.get(), rhs.lhs.get());
}

// ------------------------------------------------------------------ align

TEST(AlignTest, ColumnAlignment) {
  TemplateInfo tmpl{"d", 64, DistKind::kBlock, 0, 4};
  const ArrayDistribution d = resolve_alignment(
      {AlignDim::kStar, AlignDim::kColon}, tmpl, 64, 64, "a");
  EXPECT_EQ(d.axis(), DistAxis::kCols);
  EXPECT_EQ(d.local_cols(0), 16);
  EXPECT_EQ(d.local_rows(0), 64);
}

TEST(AlignTest, RowAlignment) {
  TemplateInfo tmpl{"d", 64, DistKind::kBlock, 0, 4};
  const ArrayDistribution d = resolve_alignment(
      {AlignDim::kColon, AlignDim::kStar}, tmpl, 64, 64, "b");
  EXPECT_EQ(d.axis(), DistAxis::kRows);
  EXPECT_EQ(d.local_rows(0), 16);
}

TEST(AlignTest, Rank1Alignment) {
  TemplateInfo tmpl{"d", 32, DistKind::kCyclic, 0, 4};
  const ArrayDistribution d =
      resolve_alignment({AlignDim::kColon}, tmpl, 32, 1, "v");
  EXPECT_EQ(d.axis(), DistAxis::kRows);
  EXPECT_EQ(d.row_dist().kind(), DistKind::kCyclic);
}

TEST(AlignTest, Violations) {
  TemplateInfo tmpl{"d", 64, DistKind::kBlock, 0, 4};
  // No aligned dimension.
  EXPECT_THROW(resolve_alignment({AlignDim::kStar, AlignDim::kStar}, tmpl, 64,
                                 64, "a"),
               Error);
  // Two aligned dimensions onto a 1-D template.
  EXPECT_THROW(resolve_alignment({AlignDim::kColon, AlignDim::kColon}, tmpl,
                                 64, 64, "a"),
               Error);
  // Extent mismatch.
  EXPECT_THROW(resolve_alignment({AlignDim::kStar, AlignDim::kColon}, tmpl,
                                 64, 32, "a"),
               Error);
}

// ------------------------------------------------------------------- sema

TEST(SemaTest, BindsFigure3Distributions) {
  const BoundProgram bound = analyze(parse(gaxpy_source(64, 4)));
  EXPECT_EQ(bound.nprocs, 4);
  const ArrayInfo& a = bound.array("a");
  EXPECT_EQ(a.dist.axis(), DistAxis::kCols);
  EXPECT_EQ(a.dist.local_cols(0), 16);
  const ArrayInfo& b = bound.array("b");
  EXPECT_EQ(b.dist.axis(), DistAxis::kRows);
  EXPECT_EQ(b.dist.local_rows(0), 16);
  const ArrayInfo& c = bound.array("c");
  EXPECT_TRUE(c.dist == a.dist);
  EXPECT_EQ(bound.stmts.size(), 1u);
}

TEST(SemaTest, UndistributedArrayIsReplicated) {
  const BoundProgram bound = analyze(parse(
      "real z(8,8)\n"
      "!hpf$ processors P(2)\n"
      "forall (k=1:8) z(1:8,k) = 1\n"
      "end\n"));
  EXPECT_EQ(bound.array("z").dist.axis(), DistAxis::kNone);
  EXPECT_EQ(bound.array("z").dist.local_elements(0), 64);
}

TEST(SemaTest, SemanticErrors) {
  struct BadCase {
    const char* src;
    const char* what;
  };
  const BadCase cases[] = {
      {"real a(4,4)\nforall (k=1:4) a(1:4,k) = ghost(1:4,k)\nend\n",
       "undeclared array"},
      {"real a(4,4)\nforall (k=1:4) a(1:4) = 1\nend\n", "rank mismatch"},
      {"real a(4,4)\n!hpf$ align (*,:) with nope :: a\nend\n",
       "unknown template"},
      {"!hpf$ template d(8)\n!hpf$ distribute q(block)\nend\n",
       "unknown distribute target"},
      {"real a(4,4)\nforall (k=1:4) a(1:4,k) = j\nend\n",
       "unbound scalar"},
      {"real a(4,4)\ndo k=1,4\ndo k=1,4\nend do\nend do\nend\n",
       "shadowed loop var"},
      {"parameter (n=0)\nreal a(n,n)\nend\n", "non-positive extent"},
  };
  for (const auto& c : cases) {
    try {
      analyze(parse(c.src));
      FAIL() << c.what;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kSemanticError) << c.what << "\n"
                                                     << e.what();
    }
  }
}

TEST(SemaTest, ProcessorCountIsCapped) {
  // Every processor of a run is a thread of the simulated machine. A count
  // past the cap must not analyze, nor one that wraps when narrowed to int
  // (4294967297 would become 1 processor, 5000000000 705,032,704).
  const auto source = [](const std::string& p) {
    return "!hpf$ processors Pr(" + p + ")\nend\n";
  };
  EXPECT_EQ(analyze(parse(source("1024"))).nprocs, kMaxProcessors);
  for (const char* p : {"1025", "100000", "4294967297", "5000000000"}) {
    try {
      analyze(parse(source(p)));
      FAIL() << "Pr(" << p << ") analyzed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kSemanticError) << e.what();
      EXPECT_NE(std::string(e.what()).find("must be in 1..1024"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SemaTest, TemplateWithoutDistributeStaysUndistributed) {
  const BoundProgram bound = analyze(parse(
      "real a(8,8)\n"
      "!hpf$ processors P(4)\n"
      "!hpf$ template d(8)\n"
      "!hpf$ align (*,:) with d :: a\n"
      "end\n"));
  // Template never distributed -> one-processor (collapsed-like) layout:
  // the align still applies but over 1 "processor".
  EXPECT_EQ(bound.array("a").dist.nprocs(), 1);
}

}  // namespace
}  // namespace oocc::hpf
