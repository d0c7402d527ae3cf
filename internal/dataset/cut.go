package dataset

import "slices"

// Cut is a point-in-time view of a store's records that copies none of
// them: the length of the row log when it was taken. The log is
// append-only and a stored row never moves or changes, so the rows
// below that length stay exactly the cut's records however many writers
// append meanwhile.
type Cut struct {
	s *Store
	n int
}

// Cut captures the store's records as of now, in O(1). A read sees
// every batch whole or not at all, so the cut holds each batch entirely
// or not at all; taken inside Quiesce, it also holds every batch whose
// Ingest hooks have run.
func (s *Store) Cut() *Cut {
	return &Cut{s: s, n: s.Len()}
}

// Len returns the number of records in the cut.
func (c *Cut) Len() int { return c.n }

// Each passes the cut's records to fn in insertion order, up to n at a
// time (at least one), through one reused slice that fn must not keep.
// Writers run meanwhile: Each copies the log's chunk list once and
// rebuilds n records at a time from the rows in log order.
func (c *Cut) Each(n int, fn func([]Record) error) error {
	n = max(n, 1)
	// A copy of the chunk list reaches the first c.n rows without the
	// lock: writers only add rows past them, and the first chunk, when
	// it grows, into a new array.
	c.s.viewMu.RLock()
	chunks := slices.Clone(c.s.rows.chunks[:(c.n+rowChunk-1)/rowChunk])
	c.s.viewMu.RUnlock()
	rows := make([]*Row, 0, n)
	recs := make([]Record, n)
	for i := 0; i < c.n; i += len(rows) {
		rows = rows[:0]
		for j := i; j < min(i+n, c.n); j++ {
			rows = append(rows, at(chunks, j))
		}
		c.s.records(recs[:len(rows)], rows)
		if err := fn(recs[:len(rows)]); err != nil {
			return err
		}
	}
	return nil
}
