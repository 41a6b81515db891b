package cminus

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for the mini-C language.
type Parser struct {
	toks    []Token
	pos     int
	nLoops  int
	depth   int      // current statement/expression nesting depth
	pragmas []string // pending pragmas to attach to the next loop
}

// maxNestDepth bounds statement and expression nesting. The parser is the
// only recursive walker that sees raw (possibly adversarial) input; every
// downstream pass recurses over the AST it builds, so capping nesting here
// bounds stack use for the whole pipeline. A Go stack overflow is fatal
// and unrecoverable, which is why this is a parse error and not a panic.
const maxNestDepth = 200

// enter charges one level of nesting; the caller must defer p.leave()
// when it returns nil.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNestDepth {
		return p.errf("nesting too deep (limit %d levels)", maxNestDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a full translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.parseProgram()
}

// MustParse parses src and panics on error; intended for tests and
// embedded corpus sources that are known to be valid.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	return t, fmt.Errorf("cminus: %s: expected %q, found %q", t.Pos, text, t.Text)
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("cminus: %s: "+format, append([]any{t.Pos}, args...)...)
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(TokEOF, "") {
		if p.cur().Kind == TokPragma {
			p.pragmas = append(p.pragmas, p.next().Text)
			continue
		}
		if p.cur().Kind != TokKeyword || !IsTypeKeyword(p.cur().Text) {
			return nil, p.errf("expected declaration, found %q", p.cur().Text)
		}
		baseType := p.parseTypeName()
		ptr := p.parsePtrDepth()
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if p.at(TokPunct, "(") {
			fn, err := p.parseFuncRest(baseType, nameTok.Text)
			if err != nil {
				return nil, err
			}
			if fn.Body != nil && LookupBuiltin(fn.Name) != nil {
				return nil, fmt.Errorf("cminus: %s: cannot define builtin %q", nameTok.Pos, fn.Name)
			}
			for _, prev := range prog.Funcs {
				if fn.Body != nil && prev.Body != nil && prev.Name == fn.Name {
					return nil, fmt.Errorf("cminus: %s: function %q defined twice", nameTok.Pos, fn.Name)
				}
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		decl, err := p.parseDeclRest(baseType, nameTok.Text, ptr, nameTok.Pos)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, decl)
	}
	return prog, nil
}

// parseTypeName consumes one or more type keywords ("unsigned long" etc.)
// and returns them joined.
func (p *Parser) parseTypeName() string {
	name := p.next().Text
	for p.cur().Kind == TokKeyword && IsTypeKeyword(p.cur().Text) {
		name += " " + p.next().Text
	}
	return name
}

func (p *Parser) parsePtrDepth() int {
	d := 0
	for p.accept(TokPunct, "*") {
		d++
	}
	return d
}

func (p *Parser) parseFuncRest(retType, name string) (*FuncDecl, error) {
	pos := p.cur().Pos
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	var params []Param
	if !p.at(TokPunct, ")") {
		for {
			if p.accept(TokKeyword, "void") && p.at(TokPunct, ")") {
				break
			}
			if p.cur().Kind != TokKeyword {
				return nil, p.errf("expected parameter type, found %q", p.cur().Text)
			}
			ptype := p.parseTypeName()
			ptr := p.parsePtrDepth()
			nameTok, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			var dims []Expr
			for p.accept(TokPunct, "[") {
				if p.at(TokPunct, "]") {
					dims = append(dims, nil)
				} else {
					d, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					dims = append(dims, d)
				}
				if _, err := p.expect(TokPunct, "]"); err != nil {
					return nil, err
				}
			}
			params = append(params, Param{Type: ptype, Name: nameTok.Text, PtrDeep: ptr, Dims: dims})
			if !p.accept(TokPunct, ",") {
				break
			}
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if p.accept(TokPunct, ";") {
		// Prototype: represent with nil body.
		return &FuncDecl{RetType: retType, Name: name, Params: params, P: pos}, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{RetType: retType, Name: name, Params: params, Body: body, P: pos}, nil
}

func (p *Parser) parseDeclRest(baseType, firstName string, firstPtr int, pos Position) (*DeclStmt, error) {
	decl := &DeclStmt{Type: baseType, P: pos}
	name, ptr := firstName, firstPtr
	for {
		item := DeclItem{Name: name, PtrDeep: ptr}
		for p.accept(TokPunct, "[") {
			d, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.Dims = append(item.Dims, d)
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
		}
		if p.at(TokPunct, "=") && (len(item.Dims) > 0 || item.PtrDeep > 0) {
			// No engine runs it, and normalization would make it an
			// assignment to a scalar of the same name.
			return nil, p.errf("cannot initialize array %q", item.Name)
		}
		if p.accept(TokPunct, "=") {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.Init = init
		}
		decl.Items = append(decl.Items, item)
		if !p.accept(TokPunct, ",") {
			break
		}
		ptr = p.parsePtrDepth()
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		name = nameTok.Text
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return decl, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	tok, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	blk := &Block{P: tok.Pos}
	for !p.at(TokPunct, "}") {
		if p.at(TokEOF, "") {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.next() // consume }
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == TokPragma:
		p.pragmas = append(p.pragmas, p.next().Text)
		return nil, nil
	case t.Kind == TokPunct && t.Text == "{":
		return p.parseBlock()
	case t.Kind == TokPunct && t.Text == ";":
		p.next()
		return nil, nil
	case t.Kind == TokKeyword:
		switch t.Text {
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "if":
			return p.parseIf()
		case "return":
			p.next()
			var x Expr
			if !p.at(TokPunct, ";") {
				var err error
				x, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
			return &ReturnStmt{X: x, P: t.Pos}, nil
		case "break":
			p.next()
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
			return &BreakStmt{P: t.Pos}, nil
		case "continue":
			p.next()
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
			return &ContinueStmt{P: t.Pos}, nil
		default:
			if IsTypeKeyword(t.Text) {
				baseType := p.parseTypeName()
				ptr := p.parsePtrDepth()
				nameTok, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				return p.parseDeclRest(baseType, nameTok.Text, ptr, t.Pos)
			}
			return nil, p.errf("unexpected keyword %q", t.Text)
		}
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseSimpleStmt parses an assignment or expression statement without the
// trailing semicolon (shared by statement and for-clause contexts).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	pos := p.cur().Pos
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=":
			if err := checkTarget(lhs, pos); err != nil {
				return nil, err
			}
		}
		switch t.Text {
		case "=":
			p.next()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{LHS: lhs, RHS: rhs, P: pos}, nil
		case "+=", "-=", "*=", "/=", "%=":
			p.next()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{LHS: lhs, Op: t.Text[:1], RHS: rhs, P: pos}, nil
		}
	}
	return &ExprStmt{X: lhs, P: pos}, nil
}

// checkTarget rejects a target of =, op=, ++ or -- that is neither a
// name nor an array element, reporting it at pos: no engine can assign
// one, and Writes sees no other write.
func checkTarget(e Expr, pos Position) error {
	if _, _, ok := writeTarget(e); !ok {
		return fmt.Errorf("cminus: %s: cannot assign to %s", pos, PrintExpr(e))
	}
	return nil
}

func (p *Parser) parseFor() (*ForStmt, error) {
	tok := p.next() // for
	p.nLoops++
	fs := &ForStmt{P: tok.Pos, Label: fmt.Sprintf("L%d", p.nLoops)}
	fs.Pragmas, p.pragmas = p.pragmas, nil
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ";") {
		if p.cur().Kind == TokKeyword && IsTypeKeyword(p.cur().Text) {
			baseType := p.parseTypeName()
			ptr := p.parsePtrDepth()
			nameTok, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			// parseDeclRest consumes the ';'.
			decl, err := p.parseDeclRest(baseType, nameTok.Text, ptr, nameTok.Pos)
			if err != nil {
				return nil, err
			}
			fs.Init = decl
		} else {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			fs.Init = s
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(TokPunct, ";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = c
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ")") {
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		fs.Post = s
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

func (p *Parser) parseWhile() (*WhileStmt, error) {
	tok := p.next() // while
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	c, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: c, Body: body, P: tok.Pos}, nil
}

// parseLoopBody parses either a braced block or a single statement
// promoted to a block.
func (p *Parser) parseLoopBody() (*Block, error) {
	if p.at(TokPunct, "{") {
		return p.parseBlock()
	}
	pos := p.cur().Pos
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	blk := &Block{P: pos}
	if s != nil {
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *Parser) parseIf() (*IfStmt, error) {
	tok := p.next() // if
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	c, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	ifs := &IfStmt{Cond: c, Then: then, P: tok.Pos}
	if p.accept(TokKeyword, "else") {
		if p.at(TokKeyword, "if") {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			ifs.Else = els
		} else {
			els, err := p.parseLoopBody()
			if err != nil {
				return nil, err
			}
			ifs.Else = els
		}
	}
	return ifs, nil
}

// ---- expressions ----

// Binary operator precedence (higher binds tighter).
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *Parser) parseTernary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	c, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.at(TokPunct, "?") {
		return c, nil
	}
	pos := p.next().Pos
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ":"); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{C: c, T: t, F: f, P: pos}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next().Text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: op, X: lhs, Y: rhs, P: t.Pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "+", "++", "--", "*", "&":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, nil
			}
			if t.Text == "++" || t.Text == "--" {
				if err := checkTarget(x, t.Pos); err != nil {
					return nil, err
				}
			}
			return &UnaryExpr{Op: t.Text, X: x, P: t.Pos}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.peek().Kind == TokKeyword && IsTypeKeyword(p.peek().Text) {
				p.next() // (
				typ := p.parseTypeName()
				for p.accept(TokPunct, "*") {
					typ += "*"
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &CastExpr{Type: typ, X: x, P: t.Pos}, nil
			}
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.next()
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		// Discard the operand; sizeof is loop-invariant and irrelevant to
		// the analysis. Model as an 8-byte size.
		depth := 1
		for depth > 0 {
			tok := p.next()
			if tok.Kind == TokEOF {
				return nil, p.errf("unexpected EOF in sizeof")
			}
			if tok.Kind == TokPunct && tok.Text == "(" {
				depth++
			}
			if tok.Kind == TokPunct && tok.Text == ")" {
				depth--
			}
		}
		return &IntLit{Val: 8, P: t.Pos}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "[":
			p.next()
			ix, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{Arr: x, Index: ix, P: t.Pos}
		case "++", "--":
			if err := checkTarget(x, t.Pos); err != nil {
				return nil, err
			}
			p.next()
			x = &UnaryExpr{Op: t.Text, X: x, Postfix: true, P: t.Pos}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("cminus: %s: bad integer %q: %v", t.Pos, t.Text, err)
		}
		return &IntLit{Val: v, P: t.Pos}, nil
	case TokFloat:
		p.next()
		// A constant must be representable in its type (C11 6.4.4p2):
		// a double that overflows is refused, one that underflows to 0
		// stays legal, as in C and Go.
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("cminus: %s: bad float %q: %v", t.Pos, t.Text, err)
		}
		return &FloatLit{Val: v, Text: t.Text, P: t.Pos}, nil
	case TokString:
		p.next()
		return &StringLit{Text: t.Text, P: t.Pos}, nil
	case TokIdent:
		p.next()
		if p.at(TokPunct, "(") {
			p.next()
			var args []Expr
			if !p.at(TokPunct, ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(TokPunct, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return &CallExpr{Fun: t.Text, Args: args, P: t.Pos}, nil
		}
		return &Ident{Name: t.Text, P: t.Pos}, nil
	case TokPunct:
		if t.Text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, p.errf("unexpected token %q", t.Text)
}
