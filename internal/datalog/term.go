// Package datalog defines the query language of the flock system: extended
// conjunctive queries — conjunctive queries with negated subgoals and
// arithmetic comparisons (§2.3 of the paper) — and unions thereof, written
// in the paper's Datalog notation. It provides the AST, a parser and
// pretty-printer, the safety checker of §3.2–§3.3, and the
// containment-mapping test of §3.1 ([CM77]).
//
// Conventions follow the paper: variables begin with an upper-case letter,
// parameters begin with '$', and predicates and symbolic constants are
// lower-case identifiers.
package datalog

import (
	"fmt"

	"queryflocks/internal/storage"
)

// Term is an argument of an atom or a side of a comparison: a variable, a
// parameter, or a constant.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is a query variable (e.g. B, P, Y1). Variables are scoped to a rule.
type Var string

func (Var) isTerm()          {}
func (v Var) String() string { return string(v) }

// Param is a flock parameter (e.g. $1, $s). Parameters play the role
// "normally reserved for constants" (§2): the flock's answer is the set of
// parameter bindings whose instantiated query passes the filter. For safety
// checking, "parameters are variables, not constants" (§3.3).
type Param string

func (Param) isTerm()          {}
func (p Param) String() string { return "$" + string(p) }

// Const is a constant term wrapping a storage value.
type Const struct{ Val storage.Value }

func (Const) isTerm() {}
func (c Const) String() string {
	if c.Val.Kind() == storage.KindString {
		// Bare lower-case identifiers print unquoted, matching the paper's
		// notation (e.g. beer); anything else quotes.
		s := c.Val.AsString()
		if isPlainSymbol(s) {
			return s
		}
	}
	return c.Val.Literal()
}

// C builds a constant term from a storage value.
func C(v storage.Value) Const { return Const{Val: v} }

// CStr, CInt and CFloat are constant-term shorthands.
func CStr(s string) Const    { return Const{Val: storage.Str(s)} }
func CInt(i int64) Const     { return Const{Val: storage.Int(i)} }
func CFloat(f float64) Const { return Const{Val: storage.Float(f)} }

// isPlainSymbol reports whether s lexes as a lower-case identifier, and
// therefore can print without quotes.
func isPlainSymbol(s string) bool {
	if s == "" {
		return false
	}
	if !(s[0] >= 'a' && s[0] <= 'z') {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// CmpOp is an arithmetic comparison operator.
type CmpOp int

// The comparison operators of the extended-CQ language.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String returns the operator's source form.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Flip returns the operator with its operands' roles exchanged, so that
// a op b == b op.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return op
	}
}

// Eval applies the operator to two values using the storage total order.
func (op CmpOp) Eval(a, b storage.Value) bool { return op.Accepts(a.Compare(b)) }

// Accepts reports whether the operator holds for a three-way comparison
// result c (negative, zero or positive, as Value.Compare returns), so a
// caller that compares without boxing — dictionary IDs, a group's count —
// reaches the verdict Eval would.
func (op CmpOp) Accepts(c int) bool {
	switch op {
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	default:
		panic(fmt.Sprintf("datalog: unknown CmpOp %d", int(op)))
	}
}
