package dataset

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync/atomic"
)

// The store keeps its rows in one append-only log in insertion order,
// guarded by the store's view lock, beside one (dataset, ID) table of
// log positions and one arena of ID bytes. Writers serialize on the
// store's ordered step, so the table and the arena's write position
// need no lock of their own; readers reach an ID's bytes through its
// row, never through the table.

// fnv64a is the 64-bit FNV-1a hash of a and b separated by a byte, so
// ("ab","c") and ("a","bc") differ, inlined to keep the per-record
// hashing allocation-free. b may be a stored ID's arena bytes.
func fnv64a[T string | []byte](a string, b T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime64
	}
	h ^= 1
	h *= prime64
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// rowChunk is how many rows one chunk of the row log holds. Chunks
// never move once full, so a stored row stays where it is: a 18 KiB
// chunk bounds the log's unused capacity without the copy a growing
// slice makes.
const rowChunk = 256

// rowLog is the store's rows in insertion order, in fixed-size chunks,
// with region, ASN and dataset indexes of log positions. A position
// is a uint32: 2^32 rows of 72 bytes would need 288 GiB.
type rowLog struct {
	// chunks[c] holds rows c*rowChunk onward. Only the first chunk grows
	// by reallocation, while the log is small; every later one is made
	// at full size.
	chunks    [][]Row
	n         int
	byRegion  map[sym][]uint32
	byASN     map[uint32][]uint32
	byDataset map[sym]int
}

func newRowLog() rowLog {
	return rowLog{
		byRegion:  make(map[sym][]uint32),
		byASN:     make(map[uint32][]uint32),
		byDataset: make(map[sym]int),
	}
}

// at returns row i of chunks, a log's chunks or a copy of their list.
func at(chunks [][]Row, i int) *Row { return &chunks[i/rowChunk][i%rowChunk] }

// append stores a validated, dedup-cleared row. The caller holds the
// view lock exclusively. A stored row is never modified, so a pointer
// to one taken under the read lock (Select, Gather) stays valid and
// unchanged after the lock is released.
func (l *rowLog) append(r *Row) {
	idx := l.n
	c := idx / rowChunk
	if c == len(l.chunks) {
		capacity := rowChunk
		if c == 0 {
			capacity = 8
		}
		l.chunks = append(l.chunks, make([]Row, 0, capacity))
	}
	if chunk := l.chunks[c]; len(chunk) == cap(chunk) {
		grown := make([]Row, len(chunk), min(2*cap(chunk), rowChunk))
		copy(grown, chunk)
		l.chunks[c] = grown
	}
	l.chunks[c] = append(l.chunks[c], *r)
	l.n++
	l.byRegion[r.region] = append(l.byRegion[r.region], uint32(idx))
	if r.asn != 0 {
		l.byASN[r.asn] = append(l.byASN[r.asn], uint32(idx))
	}
	l.byDataset[r.ds]++
}

// scan passes every row q matches to visit, narrowing the scan by index
// where q allows. With ordered set the rows come in log order; without
// it, a region prefix spanning several regions is visited region by
// region. The caller holds the view lock.
func (l *rowLog) scan(q *query, ordered bool, visit func(*Row)) {
	names := q.dict.nameList()
	switch {
	case q.asn != 0:
		for _, i := range l.byASN[q.asn] {
			if r := at(l.chunks, int(i)); (q.region == "" || regionMatch(q.region, names[r.region])) && q.matches(r) {
				visit(r)
			}
		}
	case q.region != "":
		var lists [][]uint32
		for y, name := range names {
			if idxs, ok := l.byRegion[sym(y)]; ok && regionMatch(q.region, name) {
				lists = append(lists, idxs)
			}
		}
		if ordered && len(lists) > 1 {
			merged := slices.Concat(lists...)
			slices.Sort(merged)
			lists = [][]uint32{merged}
		}
		for _, idxs := range lists {
			for _, i := range idxs {
				if r := at(l.chunks, int(i)); q.matches(r) {
					visit(r)
				}
			}
		}
	default:
		for c := range l.chunks {
			for i := range l.chunks[c] {
				if r := &l.chunks[c][i]; q.matches(r) {
					visit(r)
				}
			}
		}
	}
}

// errArenaFull marks a batch whose IDs would overflow the ID arena's
// chunk references.
var errArenaFull = errors.New("dataset: ID arena full")

// The ID arena's chunk geometry. An arena reference packs a chunk
// number above a 16-bit position, so a shared chunk is at most 64 KiB;
// an entry longer than maxSharedEntry gets a chunk of its own at
// position 0, so IDs of any length fit. A shared chunk is never smaller
// than the entry that opens it.
const (
	firstArenaChunk = 256
	maxArenaChunk   = 1 << 16
	maxSharedEntry  = maxArenaChunk / 4
	// maxArenaChunks is what the 48 bits of a reference above its
	// position can number.
	maxArenaChunks = 1 << 48
)

// idArena stores the store's IDs, each as uvarint(len(ID)) and the ID,
// in append-only chunks that never move. Appends run in the store's
// ordered step; reads take no lock: the chunk list is published through
// an atomic pointer, a chunk's slice header never changes once
// published, and an entry is written before the row naming it is
// stored.
type idArena struct {
	chunks atomic.Pointer[[][]byte]
	// pos is the write position in the last chunk; next is the size of
	// the next shared chunk.
	pos, next int
	// limit caps the chunk count (maxArenaChunks).
	limit int
}

// add appends one entry and returns its reference.
func (a *idArena) add(id string) (uint64, error) {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(id)))
	need := h + len(id)
	chunks := list(&a.chunks)
	if len(chunks) == 0 || len(chunks[len(chunks)-1])-a.pos < need {
		if len(chunks) >= a.limit {
			return 0, errArenaFull
		}
		size := need
		if need <= maxSharedEntry {
			size = max(a.next, firstArenaChunk, need)
			a.next = min(2*size, maxArenaChunk)
		}
		publish(&a.chunks, make([]byte, size))
		chunks = list(&a.chunks)
		a.pos = 0
	}
	c := len(chunks) - 1
	ref := uint64(c)<<16 | uint64(a.pos)
	n := copy(chunks[c][a.pos:], hdr[:h])
	copy(chunks[c][a.pos+n:], id)
	a.pos += need
	return ref, nil
}

// entry returns the ID at ref.
func (a *idArena) entry(ref uint64) []byte {
	b := list(&a.chunks)[ref>>16][ref&0xffff:]
	l, n := binary.Uvarint(b)
	return b[n : n+int(l)]
}

// idTable is the store's (dataset, ID) set: an open-addressing table,
// probed linearly, whose slots hold the high 32 bits of the entry's
// hash above its row's log position+1 (0 marks an empty slot). The
// stored hash bits settle most probes without reading a row, and let
// the table grow without rehashing a single ID. It holds no pointers.
type idTable struct {
	slots []uint64
	n     int
}

// find reports whether the table holds an entry of hash h that is
// (dataset, ID) by same, which is given a candidate's log position.
func (t *idTable) find(h uint64, same func(pos uint32) bool) bool {
	if len(t.slots) == 0 {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	for i := h >> 32 & mask; t.slots[i] != 0; i = (i + 1) & mask {
		if v := t.slots[i]; v>>32 == h>>32 && same(uint32(v)-1) {
			return true
		}
	}
	return false
}

// reserve grows the table, if need be, so n more entries keep it at most
// three-quarters full.
func (t *idTable) reserve(n int) {
	if 4*(t.n+n) <= 3*len(t.slots) {
		return
	}
	size := 16
	for 4*(t.n+n) > 3*size {
		size *= 2
	}
	old := t.slots
	t.slots = make([]uint64, size)
	for _, v := range old {
		if v != 0 {
			t.place(v)
		}
	}
}

// insert adds the entry of hash h at log position pos; the caller has
// reserved room and checked the table does not hold it.
func (t *idTable) insert(h uint64, pos uint32) {
	t.place(h>>32<<32 | uint64(pos+1))
	t.n++
}

// place puts slot value v at the end of its probe.
func (t *idTable) place(v uint64) {
	mask := uint64(len(t.slots) - 1)
	i := v >> 32 & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = v
}
