package cminus

import (
	"fmt"
	"strings"
)

// Print renders a program back to C source, each loop under its own
// pragma lines.
func Print(p *Program) string {
	return PrintAnnotated(p, nil)
}

// PrintAnnotated is Print with the pragma lines of every loop chosen by
// pragmas, which gets the name of the loop's function and the loop; a
// nil pragmas prints each loop's own. A parallelization plan passes its
// directives this way, so printing the analyzed program yields
// OpenMP-annotated source without a copy of the program.
func PrintAnnotated(p *Program, pragmas func(fn string, loop *ForStmt) []string) string {
	b := &printer{pragmas: pragmas}
	for _, g := range p.Globals {
		b.printStmt(g, 0)
	}
	for i, f := range p.Funcs {
		if i > 0 || len(p.Globals) > 0 {
			b.WriteString("\n")
		}
		b.printFunc(f)
	}
	return b.String()
}

// PrintStmt renders a single statement (used in diagnostics and tests).
func PrintStmt(s Stmt) string {
	var b printer
	b.printStmt(s, 0)
	return b.String()
}

// printer renders statements. pragmas, when set, chooses the pragma
// lines of each loop of function fn.
type printer struct {
	strings.Builder
	pragmas func(fn string, loop *ForStmt) []string
	fn      string
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var b strings.Builder
	printExpr(&b, e, 0)
	return b.String()
}

func (b *printer) printFunc(f *FuncDecl) {
	b.fn = f.Name
	fmt.Fprintf(b, "%s %s(", f.RetType, f.Name)
	for i, prm := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(prm.Type)
		b.WriteString(" ")
		b.WriteString(strings.Repeat("*", prm.PtrDeep))
		b.WriteString(prm.Name)
		for _, d := range prm.Dims {
			b.WriteString("[")
			if d != nil {
				printExpr(&b.Builder, d, 0)
			}
			b.WriteString("]")
		}
	}
	b.WriteString(")")
	if f.Body == nil {
		b.WriteString(";\n")
		return
	}
	b.WriteString(" ")
	b.printBlock(f.Body, 0)
	b.WriteString("\n")
}

func indent(b *printer, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func (b *printer) printBlock(blk *Block, depth int) {
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		b.printStmt(s, depth+1)
	}
	indent(b, depth)
	b.WriteString("}")
}

func (b *printer) printStmt(s Stmt, depth int) {
	switch x := s.(type) {
	case *Block:
		indent(b, depth)
		b.printBlock(x, depth)
		b.WriteString("\n")
	case *DeclStmt:
		indent(b, depth)
		b.WriteString(x.Type)
		b.WriteString(" ")
		for i, it := range x.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strings.Repeat("*", it.PtrDeep))
			b.WriteString(it.Name)
			for _, d := range it.Dims {
				b.WriteString("[")
				printExpr(&b.Builder, d, 0)
				b.WriteString("]")
			}
			if it.Init != nil {
				b.WriteString(" = ")
				printExpr(&b.Builder, it.Init, 0)
			}
		}
		b.WriteString(";\n")
	case *AssignStmt:
		indent(b, depth)
		printExpr(&b.Builder, x.LHS, 0)
		if x.Op != "" {
			b.WriteString(" " + x.Op + "= ")
		} else {
			b.WriteString(" = ")
		}
		printExpr(&b.Builder, x.RHS, 0)
		b.WriteString(";\n")
	case *ExprStmt:
		indent(b, depth)
		printExpr(&b.Builder, x.X, 0)
		b.WriteString(";\n")
	case *IfStmt:
		indent(b, depth)
		b.printIf(x, depth)
	case *ForStmt:
		pragmas := x.Pragmas
		if b.pragmas != nil {
			pragmas = b.pragmas(b.fn, x)
		}
		for _, pr := range pragmas {
			indent(b, depth)
			b.WriteString(pr)
			b.WriteString("\n")
		}
		indent(b, depth)
		b.WriteString("for (")
		if x.Init != nil {
			b.printStmtInline(x.Init)
		}
		b.WriteString("; ")
		if x.Cond != nil {
			printExpr(&b.Builder, x.Cond, 0)
		}
		b.WriteString("; ")
		if x.Post != nil {
			b.printStmtInline(x.Post)
		}
		b.WriteString(") ")
		b.printBlock(x.Body, depth)
		b.WriteString("\n")
	case *WhileStmt:
		indent(b, depth)
		b.WriteString("while (")
		printExpr(&b.Builder, x.Cond, 0)
		b.WriteString(") ")
		b.printBlock(x.Body, depth)
		b.WriteString("\n")
	case *ReturnStmt:
		indent(b, depth)
		b.WriteString("return")
		if x.X != nil {
			b.WriteString(" ")
			printExpr(&b.Builder, x.X, 0)
		}
		b.WriteString(";\n")
	case *BreakStmt:
		indent(b, depth)
		b.WriteString("break;\n")
	case *ContinueStmt:
		indent(b, depth)
		b.WriteString("continue;\n")
	}
}

// printIf prints an if statement from its keyword on; an else-if
// continues on the line of its else.
func (b *printer) printIf(x *IfStmt, depth int) {
	b.WriteString("if (")
	printExpr(&b.Builder, x.Cond, 0)
	b.WriteString(") ")
	b.printBlock(x.Then, depth)
	switch e := x.Else.(type) {
	case *Block:
		b.WriteString(" else ")
		b.printBlock(e, depth)
	case *IfStmt:
		b.WriteString(" else ")
		b.printIf(e, depth)
		return
	}
	b.WriteString("\n")
}

// printStmtInline prints a statement without indentation or trailing
// ";\n" — used inside for-clauses, which hold no loop.
func (b *printer) printStmtInline(s Stmt) {
	var tmp printer
	tmp.printStmt(s, 0)
	out := strings.TrimSuffix(strings.TrimSpace(tmp.String()), ";")
	b.WriteString(out)
}

// Operator precedence for printing with minimal parentheses.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		return binPrec[x.Op]
	case *CondExpr:
		return 0
	case *UnaryExpr:
		if x.Postfix {
			return 12
		}
		return 11
	case *CastExpr:
		return 11
	}
	return 12
}

func printExpr(b *strings.Builder, e Expr, parentPrec int) {
	prec := exprPrec(e)
	needParens := prec < parentPrec
	if needParens {
		b.WriteString("(")
	}
	switch x := e.(type) {
	case *Ident:
		b.WriteString(x.Name)
	case *IntLit:
		fmt.Fprintf(b, "%d", x.Val)
	case *FloatLit:
		b.WriteString(x.Text)
	case *StringLit:
		fmt.Fprintf(b, "%q", x.Text)
	case *BinaryExpr:
		printExpr(b, x.X, prec)
		b.WriteString(" " + x.Op + " ")
		printExpr(b, x.Y, prec+1)
	case *UnaryExpr:
		if x.Postfix {
			printExpr(b, x.X, prec)
			b.WriteString(x.Op)
		} else {
			b.WriteString(x.Op)
			printExpr(b, x.X, prec)
		}
	case *CondExpr:
		printExpr(b, x.C, 1)
		b.WriteString(" ? ")
		printExpr(b, x.T, 1)
		b.WriteString(" : ")
		printExpr(b, x.F, 0)
	case *IndexExpr:
		printExpr(b, x.Arr, 12)
		b.WriteString("[")
		printExpr(b, x.Index, 0)
		b.WriteString("]")
	case *CallExpr:
		b.WriteString(x.Fun)
		b.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a, 0)
		}
		b.WriteString(")")
	case *CastExpr:
		b.WriteString("(" + x.Type + ")")
		printExpr(b, x.X, prec)
	}
	if needParens {
		b.WriteString(")")
	}
}
