// Package audit implements firmware auditing (§4): mechanical checking of
// the linker-emitted JSON report against integrator policies, without
// access to compartment sources.
//
// Policies are written in a small declarative expression language
// ("rego-lite", standing in for the Rego policies the paper uses): a
// policy is a set of named rules, each an expression over the report that
// must evaluate to true. The builtins mirror the queries the paper shows,
// e.g. count(compartments_calling("NetAPI")) == 1. ParsePolicy checks
// every rule against one signature table (funcs), so evaluation can fail
// only on what a report holds.
package audit

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // ( ) { } ,
	tokOp    // == != <= >= < > && || ! + - *
)

type token struct {
	kind tokenKind
	text string
	num  int64
	line int
}

type lexer struct {
	src  string
	pos  int // byte offset into src
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

// peek returns the rune at pos, or 0 at the end of the source.
func (l *lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// advance consumes the rune at pos and returns it, or returns 0 at the
// end of the source.
func (l *lexer) advance() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, size := rune(l.src[l.pos]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRuneInString(l.src[l.pos:])
	}
	l.pos += size
	if r == '\n' {
		l.line++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() {
	for {
		for unicode.IsSpace(l.peek()) {
			l.advance()
		}
		// A comment, # or C++-style //, runs to the end of the line. A
		// NUL byte ends it too, and is then an unexpected character.
		rest := l.src[l.pos:]
		if !strings.HasPrefix(rest, "#") && !strings.HasPrefix(rest, "//") {
			return
		}
		if n := strings.IndexAny(rest, "\n\x00"); n >= 0 {
			l.pos += n
		} else {
			l.pos = len(l.src)
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line := l.line
	r := l.peek()
	switch {
	case l.pos >= len(l.src): // not r == 0: a NUL byte is an unexpected character
		return token{kind: tokEOF, line: line}, nil
	case unicode.IsLetter(r) || r == '_':
		start := l.pos
		for unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line}, nil
	case unicode.IsDigit(r):
		start := l.pos
		for unicode.IsDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
		digits := strings.ReplaceAll(l.src[start:l.pos], "_", "")
		n, err := strconv.ParseInt(digits, 10, 64)
		if err != nil {
			return token{}, fmt.Errorf("line %d: bad integer %q", line, digits)
		}
		return token{kind: tokInt, num: n, line: line}, nil
	case r == '"':
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("line %d: unterminated string", line)
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' && l.pos < len(l.src) {
				c = l.advance()
			}
			if c == 0 {
				return token{}, fmt.Errorf("line %d: unexpected character %q", l.line, "\x00")
			}
			sb.WriteRune(c)
		}
		return token{kind: tokString, text: sb.String(), line: line}, nil
	case strings.ContainsRune("(){},", r):
		l.pos++
		return token{kind: tokPunct, text: l.src[l.pos-1 : l.pos], line: line}, nil
	default:
		// Operators, longest match first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "==", "!=", "<=", ">=", "&&", "||":
			l.advance()
			l.advance()
			return token{kind: tokOp, text: two, line: line}, nil
		}
		if strings.ContainsRune("<>!+-*", r) {
			l.pos++
			return token{kind: tokOp, text: l.src[l.pos-1 : l.pos], line: line}, nil
		}
		return token{}, fmt.Errorf("line %d: unexpected character %q", line, string(r))
	}
}

func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
