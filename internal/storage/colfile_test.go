package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzColumnFile feeds arbitrary bytes to the column-file reader: it must
// return a *SegmentError, or columns of exactly the header's row count
// whose blocks pass their CRCs and hold the decoded IDs. It never panics.
// The committed corpus holds a valid file, a truncated one and one with a
// flipped CRC.
func FuzzColumnFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		rows, cols, err := readColumnFile("r", raw, 1<<16, nil)
		if err != nil {
			var segErr *SegmentError
			if !errors.As(err, &segErr) || segErr.Relation != "r" {
				t.Fatalf("reader error %v is not a SegmentError naming the relation", err)
			}
			return
		}
		hrows, arity, err := parseColumnHeader(raw)
		if err != nil || hrows != rows || arity != len(cols) {
			t.Fatalf("accepted %d rows of arity %d under header (%d, %d, %v)", rows, len(cols), hrows, arity, err)
		}
		for j, col := range cols {
			if len(col) != rows {
				t.Fatalf("column %d holds %d IDs, the header declares %d rows", j, len(col), rows)
			}
			block := raw[colHeaderLen+j*(4*rows+4):]
			if crc32.Checksum(block[:4*rows], castagnoli) != binary.LittleEndian.Uint32(block[4*rows:]) {
				t.Fatalf("column %d accepted with a failing CRC", j)
			}
			for i, id := range col {
				if id != binary.LittleEndian.Uint32(block[4*i:]) {
					t.Fatalf("column %d row %d decoded as %d", j, i, id)
				}
			}
		}
	})
}
