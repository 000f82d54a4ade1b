package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Segment file format (one file per relation, extension ".seg"):
//
//	magic "QFSEG1\n"
//	uvarint header length, header JSON {"name", "columns", "rows"}
//	rows, in ascending sort-key order:
//	    uvarint key length,     sort key   (Tuple.AppendSortKey)
//	    uvarint payload length, payload    (Tuple.AppendPayload, exact)
//	sparse index:
//	    uvarint entry count
//	    per entry: uvarint absolute row offset, uvarint key length, key
//	trailer: 8-byte little-endian offset of the sparse index, "QFSEGIX\n"
//
// The sparse index holds the first sort key of every block of
// segIndexEvery rows; a keyed lookup binary-searches it in memory, seeks
// to the block, and streams forward. Because the key encoding is
// order-preserving and prefix-free per value, any bound-column prefix is
// a contiguous key range, so one positioning read answers a membership
// probe (segmentReader.contains, the mutate path's duplicate check).
const (
	segMagic      = "QFSEG1\n"
	segTail       = "QFSEGIX\n"
	segIndexEvery = 256
)

type segHeader struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
}

type segIndexEntry struct {
	off int64
	key []byte
}

// writeSegment writes a sorted segment file. Tuples must already be in
// ascending sort-key order (see sortedBySortKey).
func writeSegment(path, name string, cols []string, tuples []Tuple) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	off := int64(0)
	put := func(b []byte) error {
		n, err := w.Write(b)
		off += int64(n)
		return err
	}

	if err := put([]byte(segMagic)); err != nil {
		return err
	}
	hdr, err := json.Marshal(segHeader{Name: name, Columns: cols, Rows: len(tuples)})
	if err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	if err := put(scratch[:binary.PutUvarint(scratch[:], uint64(len(hdr)))]); err != nil {
		return err
	}
	if err := put(hdr); err != nil {
		return err
	}

	var index []segIndexEntry
	var key, payload []byte
	for i, t := range tuples {
		key = t.AppendSortKey(key[:0])
		payload = t.AppendPayload(payload[:0])
		if i%segIndexEvery == 0 {
			index = append(index, segIndexEntry{off: off, key: append([]byte(nil), key...)})
		}
		if err := put(scratch[:binary.PutUvarint(scratch[:], uint64(len(key)))]); err != nil {
			return err
		}
		if err := put(key); err != nil {
			return err
		}
		if err := put(scratch[:binary.PutUvarint(scratch[:], uint64(len(payload)))]); err != nil {
			return err
		}
		if err := put(payload); err != nil {
			return err
		}
	}

	indexOff := off
	if err := put(scratch[:binary.PutUvarint(scratch[:], uint64(len(index)))]); err != nil {
		return err
	}
	for _, e := range index {
		if err := put(scratch[:binary.PutUvarint(scratch[:], uint64(e.off))]); err != nil {
			return err
		}
		if err := put(scratch[:binary.PutUvarint(scratch[:], uint64(len(e.key)))]); err != nil {
			return err
		}
		if err := put(e.key); err != nil {
			return err
		}
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(indexOff))
	if err := put(trailer[:]); err != nil {
		return err
	}
	if err := put([]byte(segTail)); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The catalog that is written after the segments references them by
	// name; a segment must be on disk before that publish happens.
	return f.Sync()
}

// segmentReader serves one open segment file. The sparse index stays in
// memory; row data is streamed on demand through positioned section
// readers, so concurrent iterators never share a file offset.
type segmentReader struct {
	f         *os.File
	path      string
	name      string
	cols      []string
	rows      int
	dataStart int64
	dataEnd   int64 // == sparse-index offset
	index     []segIndexEntry
	io        *IOStats
}

// openSegment opens and validates a segment file, loading its sparse
// index.
func openSegment(path string, stats *IOStats) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr := &segmentReader{f: f, path: path, io: stats}
	if err := sr.load(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: segment %s: %w", path, err)
	}
	stats.addSegmentOpened()
	return sr, nil
}

func (sr *segmentReader) load() error {
	fi, err := sr.f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	tail := int64(8 + len(segTail))
	if size < int64(len(segMagic))+tail {
		return fmt.Errorf("too short (%d bytes)", size)
	}
	trailer := make([]byte, tail)
	if _, err := sr.f.ReadAt(trailer, size-tail); err != nil {
		return err
	}
	if string(trailer[8:]) != segTail {
		return fmt.Errorf("bad trailer magic %q", trailer[8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if indexOff <= 0 || indexOff > size-tail {
		return fmt.Errorf("index offset %d out of range", indexOff)
	}

	head := bufio.NewReader(io.NewSectionReader(sr.f, 0, indexOff))
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(head, magic); err != nil {
		return err
	}
	if string(magic) != segMagic {
		return fmt.Errorf("bad magic %q", magic)
	}
	hdrLen, err := binary.ReadUvarint(head)
	if err != nil {
		return err
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(head, hdrBytes); err != nil {
		return err
	}
	var hdr segHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return fmt.Errorf("bad header: %w", err)
	}
	sr.name, sr.cols, sr.rows = hdr.Name, hdr.Columns, hdr.Rows
	sr.dataStart = int64(len(segMagic)) + int64(uvarintLen(hdrLen)) + int64(hdrLen)
	sr.dataEnd = indexOff

	ir := bufio.NewReader(io.NewSectionReader(sr.f, indexOff, size-tail-indexOff))
	count, err := binary.ReadUvarint(ir)
	if err != nil {
		return err
	}
	sr.index = make([]segIndexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		off, err := binary.ReadUvarint(ir)
		if err != nil {
			return err
		}
		klen, err := binary.ReadUvarint(ir)
		if err != nil {
			return err
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(ir, key); err != nil {
			return err
		}
		sr.index = append(sr.index, segIndexEntry{off: int64(off), key: key})
	}
	return nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (sr *segmentReader) close() error { return sr.f.Close() }

// seekBlock returns the data offset of the last index block whose first
// key is <= key — the block a forward scan for key must start in.
func (sr *segmentReader) seekBlock(key []byte) int64 {
	i := sort.Search(len(sr.index), func(i int) bool {
		return bytes.Compare(sr.index[i].key, key) > 0
	})
	if i == 0 {
		return sr.dataStart
	}
	sr.io.addIndexBlockRead()
	return sr.index[i-1].off
}

// segIterator streams rows of one segment from a start offset, optionally
// bounded by key predicates. accept/stop see the row's sort key:
// rows are skipped while accept is false and iteration halts when stop
// reports true (sortedness makes early termination exact).
type segIterator struct {
	sr     *segmentReader
	r      *bufio.Reader
	arity  int
	accept func(key []byte) bool
	stop   func(key []byte) bool
	key    []byte
	buf    []byte
	out    []Tuple
	done   bool
}

func (sr *segmentReader) iterate(start int64, accept, stop func(key []byte) bool) *segIterator {
	return &segIterator{
		sr:     sr,
		r:      bufio.NewReaderSize(io.NewSectionReader(sr.f, start, sr.dataEnd-start), 64<<10),
		arity:  len(sr.cols),
		accept: accept,
		stop:   stop,
	}
}

// scan streams every row in sort order.
func (sr *segmentReader) scan() *segIterator { return sr.iterate(sr.dataStart, nil, nil) }

// lookupPrefix streams the rows whose sort key begins with prefix.
func (sr *segmentReader) lookupPrefix(prefix []byte) *segIterator {
	return sr.iterate(sr.seekBlock(prefix),
		func(key []byte) bool { return bytes.HasPrefix(key, prefix) },
		func(key []byte) bool { return !bytes.HasPrefix(key, prefix) && bytes.Compare(key, prefix) > 0 })
}

func (it *segIterator) Next(max int) ([]Tuple, error) {
	if it.done {
		return nil, nil
	}
	if max <= 0 {
		max = 1024
	}
	it.out = it.out[:0]
	for len(it.out) < max {
		klen, err := binary.ReadUvarint(it.r)
		if err == io.EOF {
			it.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", it.sr.path, err)
		}
		it.key = readInto(it.key, int(klen))
		if _, err := io.ReadFull(it.r, it.key); err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", it.sr.path, err)
		}
		plen, err := binary.ReadUvarint(it.r)
		if err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", it.sr.path, err)
		}
		it.buf = readInto(it.buf, int(plen))
		if _, err := io.ReadFull(it.r, it.buf); err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", it.sr.path, err)
		}
		it.sr.io.addBytesRead(uvarintLen(klen) + int(klen) + uvarintLen(plen) + int(plen))
		if it.stop != nil && it.stop(it.key) {
			it.done = true
			break
		}
		if it.accept != nil && !it.accept(it.key) {
			continue
		}
		t, err := DecodePayloadTuple(it.buf, it.arity)
		if err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", it.sr.path, err)
		}
		it.out = append(it.out, t)
	}
	if len(it.out) == 0 {
		return nil, nil
	}
	return it.out, nil
}

func (it *segIterator) Close() error { return nil }

// readInto resizes buf to n bytes, reusing capacity.
func readInto(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// contains reports whether the segment holds a row whose full sort key
// equals key (one positioned read; rows have fixed arity so a full-key
// prefix match is exact equality).
func (sr *segmentReader) contains(key []byte) (bool, error) {
	it := sr.lookupPrefix(key)
	defer it.Close()
	batch, err := it.Next(1)
	if err != nil {
		return false, err
	}
	return len(batch) > 0, nil
}
