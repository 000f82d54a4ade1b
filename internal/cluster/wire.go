package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// The /partial response body. A shard's answer is tens of thousands of
// groups over a few thousand distinct values, so the body is columnar and
// dictionary-coded: every distinct value once, in storage's exact payload
// form, then columns of unsigned varint indexes into that table.
//
//	"QFGS" wireVersion
//	uvarint data version
//	uvarint n, n bytes       the shard's run report as JSON (n may be 0)
//	byte                     physical.StateKind
//	uvarint P                parameter count
//	uvarint L, L values      the literal table (storage.Value payloads)
//	uvarint G                group count
//	P × G uvarint            parameter columns: literal indexes
//	G bytes                  flags: flagDone, flagHas
//	then by state kind —
//	  count:   G uvarint     counts
//	  set:     G uvarint     set sizes, then Σsizes uvarint literal indexes
//	  sum:     G × 8 bytes   float64 bits, little-endian
//	  min/max: G uvarint     literal indexes (0 where flagHas is clear)
//
// Nothing may follow. wireVersion changes whenever a reader of the old
// layout would misread the new one; coordinator and workers are one
// binary started together, so a reader accepts exactly its own version
// and a mismatch is a failed shard, not a negotiation.
const (
	wireMagic   = "QFGS"
	wireVersion = 1

	flagDone = 1 << 0
	flagHas  = 1 << 1
)

// PartialResponse is a shard's answer to one scattered FILTER
// computation: its partial group states plus its own instrumented run
// report for the coordinator to merge. Bytes is the size of the body a
// decoded response arrived in.
type PartialResponse struct {
	States  *physical.GroupStates
	Version uint64
	Report  *obs.RunReport
	Bytes   int
}

// EncodePartial renders resp as a /partial response body.
func EncodePartial(resp *PartialResponse) ([]byte, error) {
	var report []byte
	if resp.Report != nil {
		var err error
		if report, err = json.Marshal(resp.Report); err != nil {
			return nil, fmt.Errorf("cluster: encoding the shard report: %w", err)
		}
	}
	st := resp.States
	g := st.Len()
	b := make([]byte, 0, 64+len(report)+10*len(st.Lits)+g*(2*len(st.Params)+3))
	b = append(b, wireMagic...)
	b = append(b, wireVersion)
	b = binary.AppendUvarint(b, resp.Version)
	b = binary.AppendUvarint(b, uint64(len(report)))
	b = append(b, report...)
	b = append(b, byte(st.Kind))
	b = binary.AppendUvarint(b, uint64(len(st.Params)))
	b = binary.AppendUvarint(b, uint64(len(st.Lits)))
	for _, v := range st.Lits {
		b = v.AppendPayload(b)
	}
	b = binary.AppendUvarint(b, uint64(g))
	for _, col := range st.Params {
		b = appendIndexes(b, col)
	}
	for i := 0; i < g; i++ {
		var f byte
		if st.Done[i] {
			f |= flagDone
		}
		if st.Has != nil && st.Has[i] {
			f |= flagHas
		}
		b = append(b, f)
	}
	switch st.Kind {
	case physical.StateCount:
		for _, n := range st.Count {
			b = binary.AppendUvarint(b, uint64(n))
		}
	case physical.StateSet:
		prev := uint32(0)
		for _, end := range st.SetEnd {
			b = binary.AppendUvarint(b, uint64(end-prev))
			prev = end
		}
		b = appendIndexes(b, st.SetVals)
	case physical.StateSum:
		for _, s := range st.Sum {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
		}
	case physical.StateMinMax:
		b = appendIndexes(b, st.Cur)
	default:
		return nil, fmt.Errorf("cluster: unknown group state kind %d", st.Kind)
	}
	return b, nil
}

func appendIndexes(b []byte, xs []uint32) []byte {
	for _, x := range xs {
		b = binary.AppendUvarint(b, uint64(x))
	}
	return b
}

// wireReader consumes a response body front to back. The first failure
// sticks: later reads return zeros, and the caller checks err once per
// section. Every count is checked against the bytes that remain before
// anything is allocated from it, so a hostile length cannot make the
// decoder allocate more than a small multiple of the body it was handed.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || n > len(r.b) {
		r.fail("truncated: %d more bytes wanted, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint with %d bytes left", len(r.b))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads the number of items a section holds, each at least one
// byte long.
func (r *wireReader) count(what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.b)) {
		r.fail("%s count %d exceeds the %d bytes left", what, v, len(r.b))
		return 0
	}
	return int(v)
}

// indexes reads n varint indexes, each below limit.
func (r *wireReader) indexes(n, limit int, what string) []uint32 {
	if r.err != nil || n > len(r.b) {
		r.fail("truncated: %d %s indexes wanted, %d bytes left", n, what, len(r.b))
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		v := r.uvarint()
		if r.err == nil && v >= uint64(limit) {
			r.fail("%s index %d out of range [0,%d)", what, v, limit)
		}
		if r.err != nil {
			return nil
		}
		out[i] = uint32(v)
	}
	return out
}

// DecodePartial parses a /partial response body. The result is
// structurally sound — columns of one length, every index inside the
// literal table — which is what physical.MergeGroupStates relies on.
func DecodePartial(body []byte) (*PartialResponse, error) {
	r := &wireReader{b: body}
	if head := r.take(len(wireMagic) + 1); r.err == nil {
		if string(head[:len(wireMagic)]) != wireMagic {
			r.fail("not a partial-state body")
		} else if v := head[len(wireMagic)]; v != wireVersion {
			r.fail("wire version %d, want %d", v, wireVersion)
		}
	}
	resp := &PartialResponse{Version: r.uvarint(), Bytes: len(body)}
	if report := r.take(r.count("report byte")); len(report) > 0 {
		resp.Report = new(obs.RunReport)
		if err := json.Unmarshal(report, resp.Report); err != nil {
			r.fail("shard report: %v", err)
		}
	}
	st := &physical.GroupStates{}
	if k := r.take(1); r.err == nil {
		st.Kind = physical.StateKind(k[0])
	}
	np := r.count("parameter")
	nl := r.count("literal")
	// A boxed value is many times its one-byte minimum on the wire, so
	// the table grows as literals actually decode.
	for i := 0; i < nl && r.err == nil; i++ {
		v, rest, err := storage.DecodePayloadValue(r.b)
		if err != nil {
			r.fail("literal %d: %v", i, err)
			break
		}
		st.Lits, r.b = append(st.Lits, v), rest
	}
	g := r.count("group")
	// Every group owns at least its parameter indexes and a flag byte.
	if r.err == nil && uint64(g)*uint64(np+1) > uint64(len(r.b)) {
		r.fail("%d groups of %d params exceed the %d bytes left", g, np, len(r.b))
	}
	if r.err == nil {
		st.Params = make([][]uint32, np)
		for j := range st.Params {
			st.Params[j] = r.indexes(g, nl, "parameter")
		}
	}
	flags := r.take(g)
	if r.err == nil {
		st.Done = make([]bool, g)
		for i, f := range flags {
			st.Done[i] = f&flagDone != 0
		}
	}
	has := func() []bool {
		out := make([]bool, g)
		for i, f := range flags {
			out[i] = f&flagHas != 0
		}
		return out
	}
	switch {
	case r.err != nil:
	case st.Kind == physical.StateCount:
		st.Count = make([]int64, g)
		for i := range st.Count {
			n := r.uvarint()
			if n > math.MaxInt64 {
				r.fail("group %d: count %d overflows", i, n)
			}
			st.Count[i] = int64(n)
		}
	case st.Kind == physical.StateSet:
		st.SetEnd = make([]uint32, g)
		total := uint64(0)
		for i := range st.SetEnd {
			total += uint64(r.count("set value"))
			if total > uint64(len(r.b)) {
				r.fail("set values through group %d exceed the %d bytes left", i, len(r.b))
				break
			}
			st.SetEnd[i] = uint32(total)
		}
		st.SetVals = r.indexes(int(total), nl, "set value")
	case st.Kind == physical.StateSum:
		st.Has = has()
		st.Sum = make([]float64, g)
		bits := r.take(8 * g)
		for i := 0; i < g && r.err == nil; i++ {
			st.Sum[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits[8*i:]))
		}
	case st.Kind == physical.StateMinMax:
		st.Has = has()
		// A group without a value carries index 0, which need not be in
		// the table.
		st.Cur = r.indexes(g, max(nl, 1), "extreme")
		for i := 0; nl == 0 && i < g && r.err == nil; i++ {
			if st.Has[i] {
				r.fail("group %d: extreme index 0 in an empty literal table", i)
			}
		}
	default:
		r.fail("unknown group state kind %d", st.Kind)
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes of trailing garbage", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	resp.States = st
	return resp, nil
}
