package cminus

import (
	"fmt"
	"strings"
)

// Lexer turns mini-C source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans the whole input.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	// The shipped kernels average three to four source bytes per token
	// (2.6 at the densest), so half the length covers all of them
	// without regrowing.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) here() Position { return Position{Line: lx.line, Col: lx.col} }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	for {
		lx.skipSpace()
		if lx.pos >= len(lx.src) {
			return Token{Kind: TokEOF, Pos: lx.here()}, nil
		}
		c := lx.peekByte()
		// Comments.
		if c == '/' && lx.peekAt(1) == '/' {
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
			continue
		}
		if c == '/' && lx.peekAt(1) == '*' {
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
			continue
		}
		break
	}
	pos := lx.here()
	c := lx.peekByte()
	switch {
	case c == '#':
		// Preprocessor line: keep #pragma, skip everything else.
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
			lx.advance()
		}
		line := strings.TrimSpace(lx.src[start:lx.pos])
		if strings.HasPrefix(line, "#pragma") {
			return Token{Kind: TokPragma, Text: line, Pos: pos}, nil
		}
		return lx.Next()
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if keywords[text] {
			return Token{Kind: TokKeyword, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(pos)
	case c == '"':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peekByte() != '"' {
			if lx.peekByte() == '\\' {
				lx.advance()
				if lx.pos >= len(lx.src) {
					break
				}
			}
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if lx.pos < len(lx.src) {
			lx.advance()
		}
		return Token{Kind: TokString, Text: text, Pos: pos}, nil
	case c == '\'':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peekByte() != '\'' {
			if lx.peekByte() == '\\' {
				lx.advance()
				if lx.pos >= len(lx.src) {
					break
				}
			}
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if lx.pos < len(lx.src) {
			lx.advance()
		}
		return Token{Kind: TokInt, Text: fmt.Sprint(charValue(text)), Pos: pos}, nil
	default:
		return lx.lexPunct(pos)
	}
}

func charValue(text string) int {
	if len(text) == 0 {
		return 0
	}
	if text[0] == '\\' && len(text) > 1 {
		switch text[1] {
		case 'n':
			return '\n'
		case 't':
			return '\t'
		case '0':
			return 0
		}
		return int(text[1])
	}
	return int(text[0])
}

func (lx *Lexer) lexNumber(pos Position) (Token, error) {
	start := lx.pos
	isFloat := false
	if lx.peekByte() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && isHexDigit(lx.peekByte()) {
			lx.advance()
		}
		for lx.pos < len(lx.src) {
			switch lx.peekByte() {
			case 'u', 'U', 'l', 'L':
				lx.advance()
				continue
			}
			break
		}
		text := strings.TrimRight(lx.src[start:lx.pos], "uUlL")
		return Token{Kind: TokInt, Text: text, Pos: pos}, nil
	}
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		if isDigit(c) {
			lx.advance()
			continue
		}
		if c == '.' {
			isFloat = true
			lx.advance()
			continue
		}
		if c == 'e' || c == 'E' {
			nxt := lx.peekAt(1)
			if isDigit(nxt) || ((nxt == '+' || nxt == '-') && isDigit(lx.peekAt(2))) {
				isFloat = true
				lx.advance()
				lx.advance()
				continue
			}
		}
		if c == 'x' || c == 'X' {
			lx.advance()
			continue
		}
		break
	}
	// Suffixes.
	for lx.pos < len(lx.src) {
		switch lx.peekByte() {
		case 'u', 'U', 'l', 'L':
			lx.advance()
			continue
		case 'f', 'F':
			isFloat = true
			lx.advance()
			continue
		}
		break
	}
	text := lx.src[start:lx.pos]
	text = strings.TrimRight(text, "uUlLfF")
	if isFloat {
		return Token{Kind: TokFloat, Text: text, Pos: pos}, nil
	}
	return Token{Kind: TokInt, Text: text, Pos: pos}, nil
}

var multiPunct = []string{
	"<<=", ">>=", "...",
	"++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
}

// startsMulti marks the bytes some multiPunct entry starts with; any
// other punctuation byte is a one-byte token without trying them.
var startsMulti = func() (t [256]bool) {
	for _, p := range multiPunct {
		t[p[0]] = true
	}
	return t
}()

func (lx *Lexer) lexPunct(pos Position) (Token, error) {
	if c := lx.peekByte(); startsMulti[c] {
		rest := lx.src[lx.pos:]
		for _, p := range multiPunct {
			if p[0] == c && strings.HasPrefix(rest, p) {
				for range p {
					lx.advance()
				}
				return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
			}
		}
	}
	c := lx.advance()
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '!', '&', '|', '^', '~',
		'(', ')', '[', ']', '{', '}', ';', ',', '?', ':', '.':
		// The text is a slice of the source: no allocation per token.
		return Token{Kind: TokPunct, Text: lx.src[lx.pos-1 : lx.pos], Pos: pos}, nil
	}
	return Token{}, fmt.Errorf("cminus: %s: unexpected character %q", pos, c)
}

func (lx *Lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		switch lx.peekByte() {
		case ' ', '\t', '\r', '\n':
			lx.advance()
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}
