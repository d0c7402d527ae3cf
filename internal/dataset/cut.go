package dataset

import (
	"cmp"
	"slices"
)

// Cut is a point-in-time view of a store's records that copies none of
// them: the length of every shard when it was taken. Shards are
// append-only and a stored row never moves or changes, so the rows
// below those lengths stay exactly the cut's records however many
// writers append meanwhile.
type Cut struct {
	s    *Store
	lens []int
}

// Cut captures the store's records as of now, in O(shards). Take it
// inside Quiesce, where no batch is half applied: the cut then holds
// every committed batch whole and nothing else.
func (s *Store) Cut() *Cut {
	c := &Cut{s: s, lens: make([]int, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.RLock()
		c.lens[i] = sh.n
		sh.mu.RUnlock()
	}
	return c
}

// Len returns the number of records in the cut.
func (c *Cut) Len() int {
	n := 0
	for _, l := range c.lens {
		n += l
	}
	return n
}

// Each passes the cut's records to fn in insertion order, up to n at a
// time (at least one), through one reused slice that fn must not keep.
// Writers run meanwhile: Each orders the cut by sorting one 16-byte
// (sequence, shard, index) reference per record, and rebuilds n records
// at a time from the rows those name.
func (c *Cut) Each(n int, fn func([]Record) error) error {
	type ref struct {
		seq          uint64
		shard, index uint32
	}
	n = max(n, 1)
	refs := make([]ref, 0, c.Len())
	chunks := make([][][]Row, len(c.s.shards))
	for si, sh := range c.s.shards {
		// A copy of the shard's chunk list reaches its first lens[si]
		// rows without the lock: writers only add rows past them, and
		// the first chunk, when it grows, into a new array.
		sh.mu.RLock()
		chunks[si] = slices.Clone(sh.rows[:(c.lens[si]+rowChunk-1)/rowChunk])
		sh.mu.RUnlock()
		for i := 0; i < c.lens[si]; i++ {
			refs = append(refs, ref{at(chunks[si], i).seq, uint32(si), uint32(i)})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Compare(a.seq, b.seq) })
	rows := make([]*Row, 0, n)
	recs := make([]Record, n)
	for len(refs) > 0 {
		k := min(n, len(refs))
		rows = rows[:0]
		for _, r := range refs[:k] {
			rows = append(rows, at(chunks[r.shard], int(r.index)))
		}
		c.s.records(recs[:k], rows)
		if err := fn(recs[:k]); err != nil {
			return err
		}
		refs = refs[k:]
	}
	return nil
}
