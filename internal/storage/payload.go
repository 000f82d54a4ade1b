package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Exact payload codec: the value representation of the DICT and of delta
// files. Unlike the AppendKey equality encoding it preserves the stored
// value bit-exactly — kind included — so a dictionary or delta row read
// back from disk is == -identical to the one written (the dictionary's
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
