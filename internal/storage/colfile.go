package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// Column file format (one file per relation, extension ".cols"): the
// relation's base rows as dictionary IDs against the data directory's
// DICT, one block per column, rows in strictly increasing ID-tuple order
// (set semantics makes the order strict).
//
//	magic "QFCOLS2\n"
//	rows  uint32, arity uint32, CRC-32C of the 16 bytes before it
//	per column: rows × uint32 ID, then the CRC-32C of those 4×rows bytes
//
// All integers are little-endian. Every byte a reader trusts is covered by
// a CRC, so a torn or bit-flipped file is an error, never a different row
// set.
const (
	colMagic     = "QFCOLS2\n"
	colHeaderLen = len(colMagic) + 12
)

// castagnoli is the CRC-32C table shared by every checksummed file of a
// data directory (column files, DICT, delta batches).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendCRC(b []byte, from int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[from:], castagnoli))
}

// appendColumnFile appends the column file of rows ID rows to b; cols must
// already be in ID-tuple order (see sortedIDColumns).
func appendColumnFile(b []byte, rows int, cols [][]uint32) []byte {
	start := len(b)
	b = append(b, colMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	b = appendCRC(b, start)
	for _, col := range cols {
		start = len(b)
		for _, id := range col {
			b = binary.LittleEndian.AppendUint32(b, id)
		}
		b = appendCRC(b, start)
	}
	return b
}

// parseColumnHeader validates a column file's header and returns its row
// count and arity.
func parseColumnHeader(h []byte) (rows, arity int, err error) {
	if len(h) < colHeaderLen {
		return 0, 0, fmt.Errorf("column file too short (%d bytes)", len(h))
	}
	if string(h[:len(colMagic)]) != colMagic {
		return 0, 0, fmt.Errorf("column file has bad magic %q", h[:len(colMagic)])
	}
	if crc32.Checksum(h[:colHeaderLen-4], castagnoli) != binary.LittleEndian.Uint32(h[colHeaderLen-4:]) {
		return 0, 0, fmt.Errorf("column file header fails its checksum")
	}
	return int(binary.LittleEndian.Uint32(h[len(colMagic):])), int(binary.LittleEndian.Uint32(h[len(colMagic)+4:])), nil
}

// openColumnFile reads and validates the header of the named relation's
// column file against the catalog's row count and arity.
func openColumnFile(path, rel string, rows, arity int) error {
	f, err := os.Open(path)
	if err != nil {
		return &SegmentError{Relation: rel, Err: err}
	}
	defer f.Close()
	h := make([]byte, colHeaderLen)
	n, err := io.ReadFull(f, h)
	if err != nil && err != io.ErrUnexpectedEOF {
		return &SegmentError{Relation: rel, Err: err}
	}
	return checkColumnShape(rel, h[:n], rows, arity)
}

// loadColumnFile reads, verifies and decodes the named relation's column
// file, which must match the catalog's row count and arity.
func loadColumnFile(path, rel string, rows, arity, maxID int, check func() error, stats *IOStats) ([][]uint32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &SegmentError{Relation: rel, Err: err}
	}
	stats.addBytesRead(len(raw))
	if err := checkColumnShape(rel, raw, rows, arity); err != nil {
		return nil, err
	}
	_, cols, err := readColumnFile(rel, raw, maxID, check)
	return cols, err
}

func checkColumnShape(rel string, h []byte, rows, arity int) error {
	gotRows, gotArity, err := parseColumnHeader(h)
	if err == nil && (gotRows != rows || gotArity != arity) {
		err = fmt.Errorf("column file holds %d rows of arity %d, the catalog %d of arity %d", gotRows, gotArity, rows, arity)
	}
	if err != nil {
		return &SegmentError{Relation: rel, Err: err}
	}
	return nil
}

// readColumnFile decodes the named relation's column file from raw: the
// header and every column block must pass their CRCs, every ID must be
// below maxID (the DICT's length) and the rows must be in strictly
// increasing ID-tuple order. check, when non-nil, is consulted once per
// internBatch rows and its error is returned as is; every other failure
// is a *SegmentError naming the relation.
func readColumnFile(rel string, raw []byte, maxID int, check func() error) (int, [][]uint32, error) {
	corrupt := func(format string, args ...any) (int, [][]uint32, error) {
		return 0, nil, &SegmentError{Relation: rel, Err: fmt.Errorf(format, args...)}
	}
	rows, arity, err := parseColumnHeader(raw)
	if err != nil {
		return 0, nil, &SegmentError{Relation: rel, Err: err}
	}
	if rows > len(raw)/4 || arity > len(raw)/4 {
		return corrupt("column file of %d bytes cannot hold %d rows of arity %d", len(raw), rows, arity)
	}
	block := 4*rows + 4
	if want := colHeaderLen + arity*block; len(raw) != want {
		return corrupt("column file is %d bytes, its header declares %d", len(raw), want)
	}
	blocks := make([][]byte, arity)
	for j := range blocks {
		b := raw[colHeaderLen+j*block:][:block]
		if crc32.Checksum(b[:4*rows], castagnoli) != binary.LittleEndian.Uint32(b[4*rows:]) {
			return corrupt("column %d fails its checksum", j)
		}
		blocks[j] = b
	}
	cols := make([][]uint32, arity)
	for j := range cols {
		cols[j] = make([]uint32, rows)
	}
	for lo := 0; lo < rows; lo += internBatch {
		if check != nil {
			if err := check(); err != nil {
				return 0, nil, err
			}
		}
		hi := min(lo+internBatch, rows)
		for j, col := range cols {
			for i := lo; i < hi; i++ {
				id := binary.LittleEndian.Uint32(blocks[j][4*i:])
				if int(id) >= maxID {
					return corrupt("column %d row %d holds ID %d past the dictionary's %d", j, i, id, maxID)
				}
				col[i] = id
			}
		}
		for i := max(lo, 1); i < hi; i++ {
			if !rowLess(cols, i-1, i) {
				return corrupt("row %d is not above row %d in ID order", i, i-1)
			}
		}
	}
	return rows, cols, nil
}

// rowLess reports whether row a of the ID columns precedes row b in
// ID-tuple order.
func rowLess(cols [][]uint32, a, b int) bool {
	for _, c := range cols {
		if c[a] != c[b] {
			return c[a] < c[b]
		}
	}
	return false
}

// cmpIDRow compares row i of the ID columns with the ID tuple ids.
func cmpIDRow(cols [][]uint32, i int, ids []uint32) int {
	for j, c := range cols {
		if c[i] != ids[j] {
			if c[i] < ids[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortedIDColumns returns a relation's rows as ID columns against d, in
// the ID-tuple order of a column file.
func sortedIDColumns(r *Relation, d *Dict) ([][]uint32, error) {
	cols, err := r.InternedColumns(d, nil)
	if err != nil {
		return nil, err
	}
	perm := make([]int, r.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return rowLess(cols, perm[a], perm[b]) })
	out := make([][]uint32, len(cols))
	for j, c := range cols {
		out[j] = make([]uint32, len(perm))
		for i, p := range perm {
			out[j][i] = c[p]
		}
	}
	return out, nil
}
