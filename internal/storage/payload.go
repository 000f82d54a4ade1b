package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Exact payload codec: the value representation of the DICT and of the
// cluster wire format. Unlike the AppendKey equality encoding it preserves
// the stored value bit-exactly — kind included — so a dictionary value
// read back from disk is == -identical to the one written (the
// dictionary's representative rule is kind-sensitive).

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
	n, err := payloadLen(b)
	if err != nil {
		return Value{}, nil, err
	}
	p, rest := b[1:n], b[n:]
	switch Kind(b[0]) {
	case KindInt:
		return Int(int64(binary.LittleEndian.Uint64(p))), rest, nil
	case KindFloat:
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(p))), rest, nil
	case KindString:
		_, sz := binary.Uvarint(p)
		return Str(string(p[sz:])), rest, nil
	}
	return Null(), rest, nil
}

// payloadLen returns the length of the payload at the start of b: the
// kind byte, then 8 bytes for an int or a float, or a uvarint length and
// that many bytes for a string.
func payloadLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("storage: truncated value payload")
	}
	n := 1
	switch kind := Kind(b[0]); kind {
	case KindNull:
	case KindInt, KindFloat:
		if n += 8; n > len(b) {
			return 0, fmt.Errorf("storage: truncated %s payload", kind)
		}
	case KindString:
		l, sz := binary.Uvarint(b[1:])
		if sz <= 0 || uint64(len(b)-1-sz) < l {
			return 0, fmt.Errorf("storage: truncated string payload")
		}
		n += sz + int(l)
	default:
		return 0, fmt.Errorf("storage: unknown payload kind %d", kind)
	}
	return n, nil
}
