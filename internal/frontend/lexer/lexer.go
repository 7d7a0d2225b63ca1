// Package lexer tokenizes MiniC source text.
package lexer

import (
	"fmt"

	"repro/internal/frontend/token"
)

// Lexer scans MiniC source into tokens. Create one with New and call Next
// until an EOF token is returned.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns lexical errors accumulated so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipSpaceAndComments consumes whitespace, // line comments and /* */ block
// comments.
func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.advance()

	switch {
	case isLetter(c):
		start := l.off - 1
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		if kw, ok := token.Keywords[lit]; ok {
			return token.Token{Kind: kw, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}

	case isDigit(c):
		start := l.off - 1
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: pos}

	case c == '"':
		start := l.off
		for l.off < len(l.src) && l.peek() != '"' && l.peek() != '\n' {
			if l.peek() == '\\' {
				l.advance()
			}
			if l.off < len(l.src) {
				l.advance()
			}
		}
		lit := l.src[start:l.off]
		if l.off < len(l.src) && l.peek() == '"' {
			l.advance()
		} else {
			l.errorf(pos, "unterminated string literal")
		}
		return token.Token{Kind: token.STRING, Lit: lit, Pos: pos}
	}

	two := func(next byte, twoKind, oneKind token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: twoKind, Pos: pos}
		}
		return token.Token{Kind: oneKind, Pos: pos}
	}

	switch c {
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '<':
		return two('=', token.LE, token.LT)
	case '>':
		return two('=', token.GE, token.GT)
	case '&':
		return two('&', token.LAND, token.AMP)
	case '|':
		if l.peek() == '|' {
			l.advance()
			return token.Token{Kind: token.LOR, Pos: pos}
		}
		l.errorf(pos, "unexpected character %q", c)
		return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
	case '+':
		return two('+', token.INC, token.PLUS)
	case '-':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: pos}
		}
		return two('-', token.DEC, token.MINUS)
	case '*':
		return token.Token{Kind: token.STAR, Pos: pos}
	case '/':
		return token.Token{Kind: token.SLASH, Pos: pos}
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACKET, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACKET, Pos: pos}
	}

	l.errorf(pos, "unexpected character %q", c)
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}
