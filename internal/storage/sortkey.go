package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Sortable key encoding for the on-disk engine.
//
// AppendKey (value.go) is the engine's *equality* encoding: injective per
// semantic class, but its byte order has nothing to do with Value.Compare.
// Segment files need keys whose byte order IS value order, so that sorted
// runs, binary search, and bound-column-prefix lookups all work directly
// on bytes. AppendSortKey is that encoding. Its contract:
//
//   - Equality classes are exactly AppendKey's: sortKey(v) == sortKey(w)
//     iff appendKey(v) == appendKey(w) (integral in-range floats collapse
//     onto their Equal int, as in the dictionary).
//   - bytes.Compare(sortKey(v), sortKey(w)) agrees with v.Compare(w)
//     wherever Compare itself is consistent — i.e. for all strings and
//     nulls, and for numerics of magnitude <= 2^53 (beyond that, Compare's
//     float images already alias distinct ints, and the sort key is the
//     *stricter* order: ints break float-image ties exactly).
//   - Each value's encoding is prefix-free against any continuation that
//     is itself a value encoding, so the concatenated tuple key supports
//     bound-column-prefix matching: a row key starts with the k-column
//     prefix key iff its first k columns are class-equal to the prefix.
//
// Layout per value (first byte is the rank tag, mirroring Value.rank):
//
//	null    0x01
//	numeric 0x02 . 8-byte big-endian float sort image . 8-byte residue
//	string  0x03 . body with 0x00->0x01 0x01, 0x01->0x01 0x02 . 0x00
//
// The numeric residue is the offset-binary int64 for values in the int
// class and a fixed sentinel for floats that stay floats after Normalize
// (non-integral, out of int64 range, or NaN); it makes huge ints that
// share one float image order exactly, and keeps the int/float classes of
// one image distinct without breaking the primary byte order.
const (
	sortTagNull   = 0x01
	sortTagNum    = 0x02
	sortTagString = 0x03

	stringEsc        = 0x01
	stringTerminator = 0x00

	// floatResidueSentinel is the residue of a value that stays a float
	// after Normalize. It equals the offset-binary encoding of int64 0,
	// which cannot collide: the only numeric with the same float image as
	// Int(0) is 0.0 itself, and that normalizes to the int class.
	floatResidueSentinel = uint64(1) << 63
)

// floatSortBits maps a float64 onto a uint64 whose unsigned order is the
// float order: positive floats get the sign bit set (ordering after all
// negatives), negative floats are bit-complemented (so more-negative
// orders lower). The classic IEEE-754 total-order trick.
func floatSortBits(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// AppendSortKey appends the order-preserving encoding of v to dst. See the
// package comment above for the contract.
func (v Value) AppendSortKey(dst []byte) []byte {
	if v.kind == KindFloat {
		v = v.Normalize()
	}
	switch v.kind {
	case KindNull:
		return append(dst, sortTagNull)
	case KindInt, KindFloat:
		dst = append(dst, sortTagNum)
		dst = binary.BigEndian.AppendUint64(dst, floatSortBits(v.AsFloat()))
		residue := floatResidueSentinel
		if v.kind == KindInt {
			residue = uint64(v.i) ^ (1 << 63) // offset binary: order = unsigned order
		}
		return binary.BigEndian.AppendUint64(dst, residue)
	default:
		dst = append(dst, sortTagString)
		for i := 0; i < len(v.s); i++ {
			switch b := v.s[i]; b {
			case 0x00:
				dst = append(dst, stringEsc, 0x01)
			case 0x01:
				dst = append(dst, stringEsc, 0x02)
			default:
				dst = append(dst, b)
			}
		}
		return append(dst, stringTerminator)
	}
}

// AppendSortKey appends the concatenated sort keys of the tuple's values.
// Because each value encoding is prefix-free, the result of a k-value
// prefix is a byte prefix of the full key exactly when the classes match.
func (t Tuple) AppendSortKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendSortKey(dst)
	}
	return dst
}

// Exact payload codec: the row representation stored beside the sort key
// in segments and delta files. Unlike both key encodings it preserves the
// stored value bit-exactly — kind included — so a relation read back from
// disk is == -identical to the one written (the dictionary's
// representative rule is kind-sensitive).

// AppendPayload appends the exact binary form of v to dst.
func (v Value) AppendPayload(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
		return dst
	case KindInt:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		// Raw bits, no -0 collapsing: the payload must round-trip the
		// stored representative exactly.
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
	default:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	}
}

// DecodePayloadValue decodes one value written by AppendPayload and
// returns it with the remaining bytes.
func DecodePayloadValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("storage: truncated value payload")
	}
	kind, b := Kind(b[0]), b[1:]
	switch kind {
	case KindNull:
		return Null(), b, nil
	case KindInt:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("storage: truncated int payload")
		}
		return Int(int64(binary.LittleEndian.Uint64(b))), b[8:], nil
	case KindFloat:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("storage: truncated float payload")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case KindString:
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < n {
			return Value{}, nil, fmt.Errorf("storage: truncated string payload")
		}
		b = b[sz:]
		return Str(string(b[:n])), b[n:], nil
	default:
		return Value{}, nil, fmt.Errorf("storage: unknown payload kind %d", kind)
	}
}

// AppendPayload appends the exact binary form of every value of t.
func (t Tuple) AppendPayload(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendPayload(dst)
	}
	return dst
}

// DecodePayloadTuple decodes an arity-value tuple written by
// Tuple.AppendPayload; the payload must be exactly consumed.
func DecodePayloadTuple(b []byte, arity int) (Tuple, error) {
	t := make(Tuple, arity)
	var err error
	for i := 0; i < arity; i++ {
		if t[i], b, err = DecodePayloadValue(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("storage: %d trailing bytes after %d-value payload", len(b), arity)
	}
	return t, nil
}
