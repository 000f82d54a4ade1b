package cluster_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	. "queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// sampleStates returns one small, sound GroupStates per state kind.
func sampleStates() map[string]*physical.GroupStates {
	lits := []storage.Value{storage.Int(3), storage.Str("beer"), storage.Float(2.5), storage.Null()}
	params := [][]uint32{{0, 1, 3}, {1, 2, 0}}
	done := []bool{false, true, false}
	return map[string]*physical.GroupStates{
		"count": {Kind: physical.StateCount, Lits: lits, Params: params, Done: done, Count: []int64{7, 0, 1 << 40}},
		"set": {Kind: physical.StateSet, Lits: lits, Params: params, Done: done,
			SetEnd: []uint32{2, 2, 5}, SetVals: []uint32{0, 2, 3, 1, 0}},
		"sum": {Kind: physical.StateSum, Lits: lits, Params: params, Done: done,
			Sum: []float64{-1.5, 0, math.Inf(1)}, Has: []bool{true, false, true}},
		"minmax": {Kind: physical.StateMinMax, Lits: lits, Params: params, Done: done,
			Cur: []uint32{2, 0, 1}, Has: []bool{true, false, true}},
		"empty": {Kind: physical.StateCount, Params: [][]uint32{{}}, Done: []bool{}, Count: []int64{}},
	}
}

func encode(t testing.TB, resp *PartialResponse) []byte {
	t.Helper()
	body, err := EncodePartial(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWireRoundTrip: encode → decode preserves every state kind, the data
// version and the shard report.
func TestWireRoundTrip(t *testing.T) {
	for name, st := range sampleStates() {
		in := &PartialResponse{States: st, Version: 42,
			Report: &obs.RunReport{Strategy: "partial", Steps: []obs.Event{{Op: obs.OpGroup, Groups: st.Len()}}}}
		body := encode(t, in)
		out, err := DecodePartial(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Version != 42 || out.Bytes != len(body) || !reflect.DeepEqual(out.Report, in.Report) {
			t.Errorf("%s: envelope %+v / %+v, want version 42, %d bytes, the report back", name, out, out.Report, len(body))
		}
		// The decoder allocates empty columns where the encoder was handed nil.
		if !bytes.Equal(encode(t, out), body) {
			t.Errorf("%s: decoded states %+v re-encode differently from %+v", name, out.States, st)
		}
		if name != "empty" && !reflect.DeepEqual(out.States, st) {
			t.Errorf("%s: decoded %+v, want %+v", name, out.States, st)
		}
	}
}

// header assembles a body by hand up to and including the group count.
func header(version byte, kind physical.StateKind, nParams, nLits, groups uint64) []byte {
	b := append([]byte("QFGS"), version)
	b = binary.AppendUvarint(b, 1) // data version
	b = binary.AppendUvarint(b, 0) // no report
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, nParams)
	b = binary.AppendUvarint(b, nLits)
	for i := uint64(0); i < nLits; i++ {
		b = storage.Int(int64(i)).AppendPayload(b)
	}
	return binary.AppendUvarint(b, groups)
}

// hostileBodies are /partial response bodies a worker must never send;
// each names the fragment its decode error must contain.
func hostileBodies(t testing.TB) map[string]struct {
	body []byte
	want string
} {
	good := encode(t, &PartialResponse{States: sampleStates()["set"], Version: 1})
	wrongVersion := append([]byte(nil), good...)
	wrongVersion[4]++
	badIndex := sampleStates()["count"]
	badIndex.Params[1][2] = uint32(len(badIndex.Lits))
	badSet := sampleStates()["set"]
	badSet.SetVals[4] = 99
	badCur := sampleStates()["minmax"]
	badCur.Cur[0] = 4
	return map[string]struct {
		body []byte
		want string
	}{
		"empty body":             {nil, "truncated"},
		"not a state body":       {[]byte(`{"groups":[]}`), "not a partial-state body"},
		"truncated":              {good[:len(good)/2], "truncated"},
		"wrong wire version":     {wrongVersion, "wire version 2, want 1"},
		"param index past table": {encode(t, &PartialResponse{States: badIndex}), "parameter index 4 out of range"},
		"set index past table":   {encode(t, &PartialResponse{States: badSet}), "set value index 99 out of range"},
		"extreme past table":     {encode(t, &PartialResponse{States: badCur}), "extreme index 4 out of range"},
		"group count beyond body": {append(header(1, physical.StateCount, 2, 1, 1<<40), 0, 0, 0),
			"group count 1099511627776 exceeds"},
		"groups × params beyond body": {append(header(1, physical.StateCount, 9, 1, 3), make([]byte, 20)...), "3 groups of 9 params exceed"},
		"literal count beyond body": {binary.AppendUvarint(header(1, physical.StateCount, 1, 0, 0)[:9], 1<<30),
			"literal count 1073741824 exceeds"},
		"set sizes beyond body": {append(append(header(1, physical.StateSet, 1, 1, 2), 0, 0, 0, 0),
			binary.AppendUvarint(binary.AppendUvarint(nil, 1<<30), 1<<30)...), "exceeds"},
		"unknown state kind": {header(1, 9, 0, 0, 0), "unknown group state kind 9"},
		"trailing garbage":   {append(append([]byte(nil), good...), 0), "trailing garbage"},
	}
}

// TestDecodePartialRejectsHostileBodies: every malformed body is an
// error naming what is wrong — never a panic, and never an allocation
// sized by a length the body only claims.
func TestDecodePartialRejectsHostileBodies(t *testing.T) {
	for name, h := range hostileBodies(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := DecodePartial(h.body)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s: decoded to %+v, err %v; want an error mentioning %q", name, resp, err, h.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(h.body), grew)
		}
	}
	good := encode(t, &PartialResponse{States: sampleStates()["minmax"], Version: 1, Report: &obs.RunReport{}})
	for i := range good {
		if _, err := DecodePartial(good[:i]); err == nil {
			t.Fatalf("the %d-byte prefix of a %d-byte body decoded", i, len(good))
		}
	}
}

// mergeAgg is an aggregate whose exported states have the given kind.
func mergeAgg(kind physical.StateKind) physical.Aggregate {
	agg := physical.Aggregate{Monotone: true, Op: datalog.Ge, Threshold: storage.Int(2)}
	switch kind {
	case physical.StateCount:
		agg.Kind = physical.AggCount
	case physical.StateSet:
		agg.Kind = physical.AggCountDistinct
	case physical.StateSum:
		agg.Kind = physical.AggSum
	default:
		agg.Kind = physical.AggMax
	}
	return agg
}

// FuzzDecodePartial: whatever bytes a shard answers with, the decoder
// either rejects them or yields states that are sound — they merge
// without panicking and re-encode to a body that decodes to the same.
func FuzzDecodePartial(f *testing.F) {
	for _, st := range sampleStates() {
		f.Add(encode(f, &PartialResponse{States: st, Version: 3, Report: &obs.RunReport{Strategy: "partial"}}))
	}
	for _, h := range hostileBodies(f) {
		f.Add(h.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := DecodePartial(body)
		if err != nil {
			return
		}
		st := resp.States
		cols := make([]string, len(st.Params))
		for i := range cols {
			cols[i] = fmt.Sprintf("$%d", i)
		}
		if _, _, err := physical.MergeGroupStates(mergeAgg(st.Kind), false, "g", cols, []*physical.GroupStates{st, st}); err != nil {
			t.Fatalf("accepted states do not merge: %v", err)
		}
		again := encode(t, resp)
		back, err := DecodePartial(again)
		if err != nil {
			t.Fatalf("re-encoded body is rejected: %v", err)
		}
		if !bytes.Equal(encode(t, back), again) {
			t.Fatalf("encode ∘ decode is not idempotent on %x", body)
		}
	})
}

var benchSink *storage.Relation

// BenchmarkScatterRoundTrip is one scattered FILTER computation without
// the network, on 2,000 baskets over two shards: each shard's group export,
// its wire encoding, the coordinator's decoding, and the shard-order
// merge. "counts" is the additive form the pair flock gets under
// baskets:0, "sets" the same computation shipping its value sets.
func BenchmarkScatterRoundTrip(b *testing.B) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 2000, Items: 40, MeanSize: 6, Skew: 0.9, Seed: 1998})
	fl := core.MustParse("QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 8\n")
	m, err := BuildMap(db, "baskets", 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([]*storage.Database, m.Shards)
	for i := range shards {
		if shards[i], err = m.Restrict(db, i); err != nil {
			b.Fatal(err)
		}
	}
	for name, additive := range map[string]bool{"counts": true, "sets": false} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			wire := 0
			for i := 0; i < b.N; i++ {
				parts := make([]*physical.GroupStates, len(shards))
				for s, shard := range shards {
					st, err := core.EvalPartialGroups(shard, fl.Params, fl.Query, fl.Filter, "flock", additive, &core.EvalOptions{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					body := encode(b, &PartialResponse{States: st})
					resp, err := DecodePartial(body)
					if err != nil {
						b.Fatal(err)
					}
					parts[s], wire = resp.States, wire+len(body)
				}
				benchSink, _, err = physical.MergeGroupStates(fl.Filter.Aggregate(), additive, "flock", fl.ParamColumns(), parts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire)/float64(b.N*len(shards)), "wire-B/shard")
		})
	}
}
