package lexer_test

import (
	"testing"

	"repro/internal/frontend/lexer"
	"repro/internal/frontend/token"
)

// all tokenizes the whole input, returning the tokens ending with EOF and
// the lexical errors.
func all(src string) ([]token.Token, []error) {
	l := lexer.New(src)
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, l.Errors()
		}
	}
}

// kinds tokenizes src and returns the token kinds (without EOF).
func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := all(src)
	if len(errs) > 0 {
		t.Fatalf("lex errors: %v", errs)
	}
	out := make([]token.Kind, 0, len(toks)-1)
	for _, tok := range toks[:len(toks)-1] {
		out = append(out, tok.Kind)
	}
	return out
}

func eq(a, b []token.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKeywordsAndIdents(t *testing.T) {
	got := kinds(t, "int foo while thread_t lock_t spawn join lock unlock NULL malloc")
	want := []token.Kind{token.KwInt, token.IDENT, token.KwWhile, token.KwThreadT,
		token.KwLockT, token.KwSpawn, token.KwJoin, token.KwLock, token.KwUnlock,
		token.KwNull, token.KwMalloc}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestOperators(t *testing.T) {
	got := kinds(t, "== != <= >= && || ++ -- -> = < > & ! + - * / % .")
	want := []token.Kind{token.EQ, token.NEQ, token.LE, token.GE, token.LAND,
		token.LOR, token.INC, token.DEC, token.ARROW, token.ASSIGN, token.LT,
		token.GT, token.AMP, token.NOT, token.PLUS, token.MINUS, token.STAR,
		token.SLASH, token.PERCENT, token.DOT}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestDelimiters(t *testing.T) {
	got := kinds(t, "( ) { } [ ] , ;")
	want := []token.Kind{token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACKET, token.RBRACKET, token.COMMA, token.SEMI}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "a // line comment\n b /* block\ncomment */ c")
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT}
	if !eq(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestNumbersAndStrings(t *testing.T) {
	toks, errs := all(`123 "hello" 0`)
	if len(errs) > 0 {
		t.Fatalf("errs: %v", errs)
	}
	if toks[0].Kind != token.INT || toks[0].Lit != "123" {
		t.Errorf("int literal: %v", toks[0])
	}
	if toks[1].Kind != token.STRING || toks[1].Lit != "hello" {
		t.Errorf("string literal: %v", toks[1])
	}
	if toks[2].Kind != token.INT || toks[2].Lit != "0" {
		t.Errorf("zero literal: %v", toks[2])
	}
}

func TestPositions(t *testing.T) {
	toks, _ := all("a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestUnterminatedString(t *testing.T) {
	_, errs := all(`"oops`)
	if len(errs) == 0 {
		t.Error("expected error for unterminated string")
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, errs := all("/* never closed")
	if len(errs) == 0 {
		t.Error("expected error for unterminated comment")
	}
}

func TestIllegalCharacter(t *testing.T) {
	toks, errs := all("a $ b")
	if len(errs) == 0 {
		t.Error("expected error for $")
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("expected ILLEGAL token")
	}
}

func TestEOFIsLast(t *testing.T) {
	toks, _ := all("x")
	if toks[len(toks)-1].Kind != token.EOF {
		t.Error("last token must be EOF")
	}
	// Next after EOF keeps returning EOF.
	l := lexer.New("")
	for i := 0; i < 3; i++ {
		if l.Next().Kind != token.EOF {
			t.Error("Next past EOF must return EOF")
		}
	}
}
