// Package cfg builds the control-flow graph of a loop body used by the
// Phase-1 symbolic execution (Section 2.3). The loop body of a normalized,
// eligible loop is a directed acyclic graph: straight-line statements,
// if/else diamonds, and inner loops collapsed into a single node. Nodes are
// created in a topological order, so a forward dataflow pass can simply
// iterate the node list.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/cminus"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	NEntry NodeKind = iota
	NExit
	NStmt   // an assignment, declaration or expression statement
	NBranch // an if condition; true edge then false edge
	NMerge  // a join point after an if/else
	NLoop   // a collapsed inner loop
)

func (k NodeKind) String() string {
	switch k {
	case NEntry:
		return "entry"
	case NExit:
		return "exit"
	case NStmt:
		return "stmt"
	case NBranch:
		return "branch"
	case NMerge:
		return "merge"
	case NLoop:
		return "loop"
	}
	return "?"
}

// Edge condition values.
const (
	EdgeAlways = -1
	EdgeFalse  = 0
	EdgeTrue   = 1
)

// Node is a CFG node.
type Node struct {
	ID   int
	Kind NodeKind
	// Stmt is the statement for NStmt nodes and the *cminus.ForStmt (or
	// *cminus.WhileStmt) for NLoop nodes.
	Stmt cminus.Stmt
	// Cond is the branch condition for NBranch nodes.
	Cond  cminus.Expr
	Succs []*Edge
	Preds []*Edge
}

// Edge is a directed CFG edge; Cond is EdgeAlways, EdgeTrue or EdgeFalse.
type Edge struct {
	From, To *Node
	Cond     int
}

// Graph is the CFG of one loop body. Nodes appear in topological order.
type Graph struct {
	Nodes []*Node
	Entry *Node
	Exit  *Node
}

// Build constructs the CFG for a normalized loop body. It returns an error
// for constructs that break the DAG property or the analysis' assumptions
// (continue statements).
func Build(body *cminus.Block) (*Graph, error) {
	g := &Graph{}
	g.Entry = g.newNode(NEntry)
	cur := []*exitPoint{{node: g.Entry, cond: EdgeAlways}}
	var err error
	cur, err = g.addBlock(body, cur)
	if err != nil {
		return nil, err
	}
	g.Exit = g.newNode(NExit)
	g.connect(cur, g.Exit)
	return g, nil
}

// exitPoint is a dangling edge source waiting to be connected.
type exitPoint struct {
	node *Node
	cond int
}

func (g *Graph) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(g.Nodes), Kind: kind}
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *Graph) connect(srcs []*exitPoint, to *Node) {
	for _, s := range srcs {
		e := &Edge{From: s.node, To: to, Cond: s.cond}
		s.node.Succs = append(s.node.Succs, e)
		to.Preds = append(to.Preds, e)
	}
}

func (g *Graph) addBlock(blk *cminus.Block, in []*exitPoint) ([]*exitPoint, error) {
	cur := in
	for _, s := range blk.Stmts {
		var err error
		cur, err = g.addStmt(s, cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (g *Graph) addStmt(s cminus.Stmt, in []*exitPoint) ([]*exitPoint, error) {
	switch x := s.(type) {
	case *cminus.AssignStmt, *cminus.DeclStmt, *cminus.ExprStmt:
		n := g.newNode(NStmt)
		n.Stmt = s
		g.connect(in, n)
		return []*exitPoint{{node: n, cond: EdgeAlways}}, nil
	case *cminus.IfStmt:
		br := g.newNode(NBranch)
		br.Cond = x.Cond
		g.connect(in, br)
		thenOut, err := g.addBlock(x.Then, []*exitPoint{{node: br, cond: EdgeTrue}})
		if err != nil {
			return nil, err
		}
		elseIn := []*exitPoint{{node: br, cond: EdgeFalse}}
		elseOut := elseIn
		if x.Else != nil {
			switch e := x.Else.(type) {
			case *cminus.Block:
				elseOut, err = g.addBlock(e, elseIn)
			default:
				elseOut, err = g.addStmt(e, elseIn)
			}
			if err != nil {
				return nil, err
			}
		}
		m := g.newNode(NMerge)
		g.connect(append(thenOut, elseOut...), m)
		return []*exitPoint{{node: m, cond: EdgeAlways}}, nil
	case *cminus.ForStmt, *cminus.WhileStmt:
		n := g.newNode(NLoop)
		n.Stmt = s
		g.connect(in, n)
		return []*exitPoint{{node: n, cond: EdgeAlways}}, nil
	case *cminus.Block:
		return g.addBlock(x, in)
	case *cminus.ContinueStmt:
		return nil, fmt.Errorf("cfg: continue statement at %s is not supported", x.Pos())
	case *cminus.BreakStmt:
		return nil, fmt.Errorf("cfg: break statement at %s breaks the DAG property", x.Pos())
	case *cminus.ReturnStmt:
		return nil, fmt.Errorf("cfg: return statement at %s breaks the DAG property", x.Pos())
	}
	return in, nil
}

// String renders the CFG for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%d:%s", n.ID, n.Kind)
		switch {
		case n.Kind == NStmt || n.Kind == NLoop:
			label := strings.TrimSpace(cminus.PrintStmt(n.Stmt))
			if i := strings.IndexByte(label, '\n'); i >= 0 {
				label = label[:i] + " ..."
			}
			fmt.Fprintf(&b, " [%s]", label)
		case n.Kind == NBranch:
			fmt.Fprintf(&b, " [if %s]", cminus.PrintExpr(n.Cond))
		}
		b.WriteString(" ->")
		for _, e := range n.Succs {
			switch e.Cond {
			case EdgeTrue:
				fmt.Fprintf(&b, " %d(T)", e.To.ID)
			case EdgeFalse:
				fmt.Fprintf(&b, " %d(F)", e.To.ID)
			default:
				fmt.Fprintf(&b, " %d", e.To.ID)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
