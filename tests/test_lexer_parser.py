"""Tests for the C-subset lexer, parser and pretty printer."""

import hashlib
import random

import pytest

from repro.cfront import ast_nodes as ast
from repro.cfront.cparser import parse_expression, parse_function, parse_program
from repro.cfront.lexer import TokenKind, tokenize
from repro.cfront.printer import expr_to_c, to_c
from repro.errors import LexError, ParseError
from repro.tsvc import all_kernel_names, load_kernel


class TestLexer:
    def test_tokenizes_keywords_identifiers_numbers(self):
        tokens = tokenize("int x = 42;")
        kinds = [t.kind for t in tokens]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT,
                         TokenKind.NUMBER, TokenKind.PUNCT, TokenKind.EOF]

    def test_maximal_munch_on_operators(self):
        tokens = tokenize("a <<= b >= c != d ++ e")
        texts = [t.text for t in tokens if t.kind is TokenKind.PUNCT]
        assert texts == ["<<=", ">=", "!=", "++"]

    def test_skips_comments_and_preprocessor_lines(self):
        source = "#include <immintrin.h>\n// line comment\n/* block */ int x;"
        tokens = tokenize(source)
        assert [t.text for t in tokens if t.kind is not TokenKind.EOF] == ["int", "x", ";"]

    def test_hex_and_suffixed_literals(self):
        tokens = tokenize("0xFF 10u 3L")
        values = [t.text for t in tokens if t.kind is TokenKind.NUMBER]
        assert values == ["0xFF", "10u", "3L"]

    def test_reports_location(self):
        tokens = tokenize("int\n  foo")
        foo = [t for t in tokens if t.text == "foo"][0]
        assert foo.location.line == 2
        assert foo.location.column == 3

    def test_unterminated_comment_raises(self):
        # The location is the end of input, not the comment's opening.
        with pytest.raises(LexError) as info:
            tokenize("int x;\n/* never\n closed")
        assert str(info.value) == "3:8: unterminated block comment"

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError) as info:
            tokenize("int\n\tx = $x;")
        assert str(info.value) == "2:6: unexpected character '$'"

    def test_unterminated_string_reports_its_opening_quote(self):
        with pytest.raises(LexError) as info:
            tokenize('int x;\n  "abc\\"\nx')
        assert str(info.value) == "2:3: unterminated string literal"

    def test_hash_outside_column_one_is_unexpected(self):
        assert [t.text for t in tokenize("#pragma x\nint")] == ["int", ""]
        with pytest.raises(LexError) as info:
            tokenize("int x;\n  #pragma x")
        assert str(info.value) == "2:3: unexpected character '#'"


def _stream_digest(sources) -> str:
    """sha256 over every source's (kind, text, line, column) token stream,
    or its ``LexError`` message and location."""
    digest = hashlib.sha256()
    for source in sources:
        try:
            for tok in tokenize(source):
                digest.update(repr((tok.kind.value, tok.text, tok.location.line,
                                    tok.location.column)).encode())
        except LexError as exc:
            digest.update(repr(("LexError", str(exc), exc.location.line,
                                exc.location.column)).encode())
        digest.update(b"\0")
    return digest.hexdigest()


#: Fragments the mutation corpus splices into kernel sources: comment and
#: string delimiters, preprocessor marks, numeric edge shapes, operators,
#: and non-ASCII letters and digits (``str.isalpha``/``isdigit`` semantics).
_MUTATION_FRAGMENTS = [
    "/*", "*/", "//", '"', "'", "\\", "#", "\n#", "\n", " ", "\t", "\r",
    "$", "@", "`", "0x", "0X1fUL", "1.5", "7.", ".5", "...", "..", "<<=",
    ">>=", "->", "=", "_x9", "int16_t", "__m256i", "\u00e9", "\u00b2",
    "\u0663", "\u00bd", "\u00a0", "\u2167",
]


def mutation_corpus(count=2000, seed=1313):
    """A fixed seeded corpus of lightly corrupted TSVC sources."""
    rng = random.Random(seed)
    bases = [load_kernel(name).source for name in all_kernel_names()]
    corpus = []
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(text) + 1)
            op = rng.random()
            if op < 0.5:
                text = text[:pos] + rng.choice(_MUTATION_FRAGMENTS) + text[pos:]
            elif op < 0.8:
                text = text[:pos] + text[pos + rng.randint(1, 8):]
            elif op < 0.95:
                text = text[:pos] + rng.choice(_MUTATION_FRAGMENTS) + text[pos + 1:]
            else:
                text = text[:pos]
        corpus.append(text)
    return corpus


class TestTokenStreamPins:
    """The token stream (kind, text, line, column) and every ``LexError``
    message and location, pinned over fixed corpora."""

    @pytest.mark.parametrize("dtype,expected", [
        ("int16", "0f255ba7bb98f4cff937da8ebb5e57a44b122f8f4c0241606fae2ad568d326b2"),
        ("int32", "34d3dbb86ed22bc550e450c59a8cd46f0763d72dd8c396790e72c8e0229bdf4d"),
        ("int64", "3042f4ba1a77e272f333e6158582dbc62587b50ff8e285a5eef00a8c8b005f62"),
    ])
    def test_tsvc_sources(self, dtype, expected):
        sources = [load_kernel(name, dtype).source for name in all_kernel_names()]
        assert _stream_digest(sources) == expected

    def test_avx2_golden_final_code(self):
        from test_sve import AVX2_GOLDEN

        from repro.pipeline.campaign import CampaignConfig, CampaignRunner

        report = CampaignRunner(CampaignConfig(workers=1)).run(
            [kernel for kernel, _, _ in AVX2_GOLDEN])
        codes = [r.result["final_code"] for r in report.records
                 if r.result["final_code"]]
        assert [hashlib.sha256(code.encode()).hexdigest() for code in codes] == \
            [sha for _, _, sha in AVX2_GOLDEN if sha]
        assert _stream_digest(codes) == "581b485fdfd7becd00da2def039242ddae52e9a176286e1efd266b3b0a29101c"

    def test_seeded_mutation_corpus(self):
        assert _stream_digest(mutation_corpus()) == "8610b0d63b272357cf708c7c22d43707751ecc63fd9eb2baea70d4afe94e5303"


class TestExpressionParsing:
    def test_precedence_of_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_comparison_and_logical_operators(self):
        expr = parse_expression("a < b && c >= d")
        assert isinstance(expr, ast.BinOp) and expr.op == "&&"

    def test_ternary(self):
        expr = parse_expression("a > 0 ? a : -a")
        assert isinstance(expr, ast.TernaryOp)

    def test_array_subscript_and_call(self):
        expr = parse_expression("_mm256_add_epi32(a[i], b[i + 1])")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 2
        assert isinstance(expr.args[0], ast.ArrayRef)

    def test_cast_of_address(self):
        expr = parse_expression("(__m256i*)&a[i]")
        assert isinstance(expr, ast.Cast)
        assert expr.target_type.is_pointer
        assert isinstance(expr.operand, ast.UnaryOp) and expr.operand.op == "&"

    def test_compound_assignment(self):
        expr = parse_expression("a[i] += b[i] * 2")
        assert isinstance(expr, ast.Assign) and expr.op == "+="

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b extra")


class TestFunctionParsing:
    def test_simple_kernel(self):
        func = parse_function("void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = i; }")
        assert func.name == "f"
        assert [p.name for p in func.params] == ["n", "a"]
        assert func.params[1].param_type.is_pointer

    def test_multi_declarator_declarations_are_split(self):
        func = parse_function("void f(int n) { __m256i a, b, c; int x = 1, y = 2; }")
        decls = [s for s in func.body.body if isinstance(s, ast.Decl)]
        assert [d.name for d in decls] == ["a", "b", "c", "x", "y"]

    def test_goto_and_labels(self):
        source = """
        void f(int n, int *a) {
            for (int i = 0; i < n; i++) {
                if (a[i] > 0) { goto L20; }
                a[i] = 1;
                goto L30;
                L20:
                a[i] = 2;
                L30:
                ;
            }
        }
        """
        func = parse_function(source)
        gotos = ast.collect(func, ast.Goto)
        labels = ast.collect(func, ast.Label)
        assert {g.label for g in gotos} == {"L20", "L30"}
        assert {label.name for label in labels} == {"L20", "L30"}

    def test_program_with_two_functions(self):
        program = parse_program("void f(int n) { } void g(int n) { }")
        assert [f.name for f in program.functions] == ["f", "g"]
        assert program.function("g").name == "g"

    def test_missing_semicolon_is_an_error(self):
        with pytest.raises(ParseError):
            parse_function("void f(int n) { int x = 1 }")

    def test_parse_function_rejects_multiple_functions(self):
        with pytest.raises(ParseError):
            parse_function("void f(int n) { } void g(int n) { }")


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("source", [
        "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) a[i] = b[i] + 1; }",
        "void f(int n, int *a) { int j = -1; for (int i = 0; i < n; i++) { j++; a[j] = i; } }",
        "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { if (a[i] > 0) b[i] = a[i]; else b[i] = -a[i]; } }",
        "void f(int *a, int *b, int n) { int s = 0; for (int i = 0; i < n; i++) { s += 2; a[i] = s * b[i]; } }",
    ])
    def test_round_trip_is_stable(self, source):
        first = to_c(parse_function(source))
        second = to_c(parse_function(first))
        assert first == second

    def test_parentheses_preserved_where_needed(self):
        expr = parse_expression("(a + b) * c")
        assert expr_to_c(expr) == "(a + b) * c"

    def test_no_redundant_parentheses(self):
        expr = parse_expression("a + b * c")
        assert expr_to_c(expr) == "a + b * c"

    def test_intrinsic_roundtrip(self):
        source = (
            "void f(int n, int *a) {\n"
            "    __m256i v = _mm256_loadu_si256((__m256i*)&a[0]);\n"
            "    _mm256_storeu_si256((__m256i*)&a[0], v);\n"
            "}\n"
        )
        printed = to_c(parse_function(source))
        assert "_mm256_loadu_si256" in printed
        assert "(__m256i*)&a[0]" in printed.replace(" ", "")
