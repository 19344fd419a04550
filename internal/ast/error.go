package ast

import "vase/internal/source"

// ---------------------------------------------------------------------------
// Error nodes
//
// A recovered parse is a total function from bytes to tree: when the parser
// cannot make sense of a region it resynchronizes to the nearest anchor
// token (";", "end", "entity", "architecture", "process", "begin") and wraps
// the skipped region in a typed Error node at the syntactic position where a
// well-formed construct was expected. The node records the span of the
// skipped bytes and keeps whatever partial children were parsed before the
// recovery, so later passes (sema, lint, the language server) can still see
// — and resolve names against — everything the parser did understand.
//
// Error nodes carry no diagnostics themselves; the parser reports the
// VASS01xx diagnostics as before. Sema types ErrorExpr as the poisoned
// error type, which suppresses cascading diagnostics downstream.

// ErrorNode is implemented by all five Error node variants. It exists so
// generic tools (tree walkers, tiling checks) can recognize recovery nodes
// without enumerating the variants.
type ErrorNode interface {
	Node
	// Skipped is the span of input bytes the parser skipped while
	// resynchronizing (invalid when the recovery consumed nothing).
	Skipped() source.Span
	errorNode()
}

// ErrorExpr is an expression-shaped hole: the parser expected an expression
// and found none it could parse.
type ErrorExpr struct {
	SpanV source.Span
}

// ErrorStmt is a sequential-statement-shaped hole. Parts keeps partial
// children parsed before the recovery (e.g. the left-hand side of a broken
// assignment).
type ErrorStmt struct {
	SpanV source.Span
	Parts []Node
}

// ErrorConc is a concurrent-statement-shaped hole at architecture-body
// level.
type ErrorConc struct {
	SpanV source.Span
	Parts []Node
}

// ErrorDecl is a declaration-shaped hole.
type ErrorDecl struct {
	SpanV source.Span
	Parts []Node
}

// ErrorUnit is a design-unit-shaped hole: tokens at file level that belong
// to no entity, architecture or package.
type ErrorUnit struct {
	SpanV source.Span
	Parts []Node
}

// Span implementations.
func (n *ErrorExpr) Span() source.Span { return n.SpanV }
func (n *ErrorStmt) Span() source.Span { return n.SpanV }
func (n *ErrorConc) Span() source.Span { return n.SpanV }
func (n *ErrorDecl) Span() source.Span { return n.SpanV }
func (n *ErrorUnit) Span() source.Span { return n.SpanV }

// Skipped implementations: the whole node span is the skipped region.
func (n *ErrorExpr) Skipped() source.Span { return n.SpanV }
func (n *ErrorStmt) Skipped() source.Span { return n.SpanV }
func (n *ErrorConc) Skipped() source.Span { return n.SpanV }
func (n *ErrorDecl) Skipped() source.Span { return n.SpanV }
func (n *ErrorUnit) Skipped() source.Span { return n.SpanV }

func (*ErrorExpr) errorNode() {}
func (*ErrorStmt) errorNode() {}
func (*ErrorConc) errorNode() {}
func (*ErrorDecl) errorNode() {}
func (*ErrorUnit) errorNode() {}

// Position the variants in their syntactic categories.
func (*ErrorExpr) exprNode() {}
func (*ErrorStmt) seqNode()  {}
func (*ErrorConc) concNode() {}
func (*ErrorDecl) declNode() {}
func (*ErrorUnit) unitNode() {}

// IsError reports whether n is one of the Error node variants.
func IsError(n Node) bool {
	_, ok := n.(ErrorNode)
	return ok
}

// HasErrors reports whether the tree rooted at n contains any Error node.
func HasErrors(n Node) bool {
	found := false
	Walk(n, func(c Node) bool {
		if found {
			return false
		}
		if IsError(c) {
			found = true
			return false
		}
		return true
	})
	return found
}

// CountErrors returns the number of Error nodes in the tree rooted at n.
func CountErrors(n Node) int {
	count := 0
	Walk(n, func(c Node) bool {
		if IsError(c) {
			count++
		}
		return true
	})
	return count
}

// ---------------------------------------------------------------------------
// Library/use clauses
//
// VASS designs are self-contained once same-file packages are visible, so
// library and use clauses carry no semantics. They were previously consumed
// without leaving a node; the recovery invariant (every token is covered by
// some top-level unit) requires them to appear in the tree.

// LibClause is an accepted-and-ignored "library ...;" or "use ...;" clause.
type LibClause struct {
	SpanV source.Span
}

// Span returns the span of the clause.
func (n *LibClause) Span() source.Span { return n.SpanV }

func (*LibClause) unitNode() {}
