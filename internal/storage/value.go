// Package storage implements the relational substrate for the query-flock
// system: typed values, tuples, set-semantics relations with hash indexes,
// a statistics catalog used by the cost-based planner, and CSV import/export.
//
// The paper assumes "the data is stored in a conventional relational system"
// (§1.4); this package is that system. Relations follow set semantics
// throughout because the paper's containment-based claims do not hold for
// bag semantics (§2.3).
package storage

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. Null is the zero Kind so that a zero Value is
// a well-defined null.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar stored in relations. Value is a
// comparable struct so it can be used directly as a map key; two Values are
// identical under == exactly when they have the same kind and content.
//
// Numeric comparisons across Int and Float are supported by Compare;
// equality under == is intentionally kind-sensitive (Int(1) != Float(1)),
// matching the behaviour of a typed column store.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value. (Constructor; see Value.String for display.)
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Null returns the null value.
func Null() Value { return Value{} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer content. It panics if the value is not an int;
// use Kind to check first.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("storage: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric content widened to float64. It accepts both
// int and float values.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("storage: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string content. It panics if the value is not a
// string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("storage: AsString on %s value", v.kind))
	}
	return v.s
}

// IsNumeric reports whether the value is an int or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display. Strings are rendered bare; use
// Literal for a parseable form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return fmt.Sprintf("Value(%d)", uint8(v.kind))
	}
}

// Literal renders the value as a parseable literal: strings are quoted,
// numbers and NULL are bare.
func (v Value) Literal() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// Compare orders two values. The total order is: NULL < numerics < strings;
// numerics compare by numeric value regardless of int/float kind; strings
// compare lexicographically. It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	switch v.kind {
	case KindNull:
		if w.kind == KindNull {
			return 0
		}
		return -1
	case KindInt:
		return CompareInt(v.i, w)
	case KindFloat:
		return CompareFloat(v.f, w)
	default: // string
		if w.kind != KindString {
			return 1
		}
		return strings.Compare(v.s, w.s)
	}
}

// CompareInt returns Int(i).Compare(w) without boxing i. Two ints compare
// exactly, so large int64s do not round; against a float, i widens to
// float64.
func CompareInt(i int64, w Value) int {
	if w.kind != KindInt {
		return CompareFloat(float64(i), w)
	}
	return cmp.Compare(i, w.i)
}

// CompareFloat returns Float(f).Compare(w) without boxing f: numerics
// compare as float64, NULL sorts below and strings above.
func CompareFloat(f float64, w Value) int {
	var g float64
	switch w.kind {
	case KindNull:
		return 1
	case KindInt:
		g = float64(w.i)
	case KindFloat:
		g = w.f
	default:
		return -1
	}
	switch {
	case f < g:
		return -1
	case f > g:
		return 1
	default:
		return 0
	}
}

// Equal reports semantic equality: same as Compare(w) == 0, so Int(1) and
// Float(1) are Equal even though they differ under ==.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// minInt64Float and maxInt64Float bound the float64s whose truncation is
// exactly representable as int64. The upper bound is 2^63, which float64
// represents exactly; a float must be strictly below it (int64 tops out at
// 2^63-1, which float64 cannot represent). The lower bound -2^63 is itself
// representable and included.
const (
	minInt64Float = -9223372036854775808.0
	maxInt64Float = 9223372036854775808.0
)

// Normalize returns the canonical representative of the value's semantic
// equality class: a float that is integral and within int64 range becomes
// the Equal int (Float(1) -> Int(1)); everything else is returned
// unchanged. Normalized values of Equal numerics are identical under ==,
// so Normalize is the right key for Go maps that must respect Equal (see
// the COUNT-distinct accumulator).
func (v Value) Normalize() Value {
	if v.kind == KindFloat {
		f := v.f
		if f == math.Trunc(f) && f >= minInt64Float && f < maxInt64Float {
			return Int(int64(f))
		}
	}
	return v
}

// ParseValue converts a text field into a Value using the cheapest type
// that round-trips: NULL, then int, then float, then string. A field
// starting with a double quote is always a string: well-formed quotes are
// unquoted, and a malformed quoted field (e.g. `"a"b`) keeps its interior
// verbatim with the outer quotes stripped — it never re-enters numeric
// parsing.
func ParseValue(s string) Value {
	if s == "" {
		return Str("")
	}
	if s == "NULL" {
		return Null()
	}
	if s[0] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return Str(u)
		}
		t := s[1:]
		if n := len(t); n > 0 && t[n-1] == '"' {
			t = t[:n-1]
		}
		return Str(t)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return Str(s)
}

// AppendKey appends a self-delimiting binary encoding of v to dst. Two
// values produce the same key exactly when they are Equal: distinct values
// never collide (kind byte + length-prefixed payload), and the Equal
// cross-kind numerics share one encoding — an integral in-range float is
// keyed as its Equal int (see Normalize), so Int(1) and Float(1) hash and
// join together just as Compare says they should. Hot paths reuse one
// destination buffer per worker and look keys up without materializing a
// string (see Index.LookupBytes).
func (v Value) AppendKey(dst []byte) []byte {
	if v.kind == KindFloat {
		v = v.Normalize()
	}
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
		return dst
	case KindInt:
		u := uint64(v.i)
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(u>>shift))
		}
		return dst
	case KindFloat:
		u := floatBits(v.f)
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(u>>shift))
		}
		return dst
	default:
		n := len(v.s)
		dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		return append(dst, v.s...)
	}
}
