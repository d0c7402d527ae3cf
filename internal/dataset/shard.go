package dataset

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// The store keeps its rows in one append-only log in insertion order,
// guarded by the store's view lock, and stripes only (dataset, ID)
// uniqueness: ID stripes keyed by hash(dataset, ID) let concurrent
// writers check and claim IDs before their batches take the store's
// ordered step, and catch duplicates across regions.

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

// errArenaFull marks a batch whose IDs would overflow an ID arena's
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
	// maxArenaChunks keeps every reference+1 below tombstone.
	maxArenaChunks = 1<<16 - 1
)

// idArena stores the (dataset, ID) entries of one ID stripe, each as
// uvarint(dataset sym), uvarint(len(ID)), ID, in append-only chunks
// that never move. Appends hold the stripe lock; reads take none: the
// chunk list is published through an atomic pointer, a chunk's slice
// header never changes once published, and an entry is written before
// the row naming it is stored.
type idArena struct {
	chunks atomic.Pointer[[][]byte]
	// pos is the write position in the last chunk; next is the size of
	// the next shared chunk.
	pos, next int
	// limit caps the chunk count (maxArenaChunks).
	limit int
}

// add appends one entry and returns its reference.
func (a *idArena) add(ds sym, id string) (uint32, error) {
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(ds))
	h += binary.PutUvarint(hdr[h:], uint64(len(id)))
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
	ref := uint32(c)<<16 | uint32(a.pos)
	n := copy(chunks[c][a.pos:], hdr[:h])
	copy(chunks[c][a.pos+n:], id)
	a.pos += need
	return ref, nil
}

// entry decodes the entry at ref.
func (a *idArena) entry(ref uint32) (sym, []byte) {
	b := list(&a.chunks)[ref>>16][ref&0xffff:]
	ds, n := binary.Uvarint(b)
	l, m := binary.Uvarint(b[n:])
	return sym(ds), b[n+m : n+m+int(l)]
}

// Slot states of an ID table besides a live reference+1.
const (
	emptySlot = 0
	tombstone = ^uint32(0)
)

// idStripe is one stripe of the store's (dataset, ID) set: an
// open-addressing table, probed linearly from the entry's hash, of
// references+1 into the stripe's arena. It holds no pointers.
type idStripe struct {
	mu    sync.Mutex
	arena idArena
	table []uint32
	// used counts live slots and tombstones.
	used int
}

// slotOf returns the table position holding (ds, id), or the empty slot
// its probe ends at, with found false.
func (st *idStripe) slotOf(h uint64, ds sym, id string) (pos int, found bool) {
	if len(st.table) == 0 {
		return -1, false
	}
	mask := len(st.table) - 1
	for pos = int(h>>idStripeBits) & mask; ; pos = (pos + 1) & mask {
		switch v := st.table[pos]; v {
		case emptySlot:
			return pos, false
		case tombstone:
		default:
			if eds, eid := st.arena.entry(v - 1); eds == ds && string(eid) == id {
				return pos, true
			}
		}
	}
}

// has reports whether the stripe holds (ds, id); h is its hash.
func (st *idStripe) has(h uint64, ds sym, id string) bool {
	_, found := st.slotOf(h, ds, id)
	return found
}

// claim adds (ds, id), which the stripe does not hold, and returns its
// arena reference; h is its hash and names the dictionary's name list,
// to rehash by.
func (st *idStripe) claim(h uint64, ds sym, id string, names []string) (uint32, error) {
	if 4*(st.used+1) > 3*len(st.table) {
		st.grow(names)
	}
	ref, err := st.arena.add(ds, id)
	if err != nil {
		return 0, err
	}
	mask := len(st.table) - 1
	pos := int(h>>idStripeBits) & mask
	for st.table[pos] != emptySlot {
		pos = (pos + 1) & mask
	}
	st.table[pos] = ref + 1
	st.used++
	return ref, nil
}

// release drops (ds, id) again, after a vetoed batch or a failed claim.
// Its arena bytes stay, unreferenced.
func (st *idStripe) release(h uint64, ds sym, id string) {
	if pos, found := st.slotOf(h, ds, id); found {
		st.table[pos] = tombstone
	}
}

// grow rehashes the live entries into a table at most half full,
// dropping tombstones.
func (st *idStripe) grow(names []string) {
	live := 0
	for _, v := range st.table {
		if v != emptySlot && v != tombstone {
			live++
		}
	}
	size := 16
	for size < 2*(live+1) {
		size *= 2
	}
	table := make([]uint32, size)
	mask := size - 1
	for _, v := range st.table {
		if v == emptySlot || v == tombstone {
			continue
		}
		ds, id := st.arena.entry(v - 1)
		pos := int(fnv64a(names[ds], id)>>idStripeBits) & mask
		for table[pos] != emptySlot {
			pos = (pos + 1) & mask
		}
		table[pos] = v
	}
	st.table, st.used = table, live
}
