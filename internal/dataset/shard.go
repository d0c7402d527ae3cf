package dataset

import (
	"sort"
	"sync"
)

// The store is lock-striped two ways: records live in shards keyed by
// hash(dataset, region) so concurrent writers for different regions
// never contend, and (dataset, ID) uniqueness is enforced by a separate
// set of ID stripes keyed by hash(dataset, ID) — a record's dedup key
// and its shard key disagree on purpose, because duplicates must be
// caught across regions while records should cluster by region for
// query locality.

// fnv64a is the 64-bit FNV-1a hash of the given strings separated by a
// NUL byte, inlined to keep the per-record hashing allocation-free.
func fnv64a(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for pi, p := range parts {
		if pi > 0 {
			// Mix a separator byte so ("ab","c") and ("a","bc") differ.
			h ^= 1
			h *= prime64
		}
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
	}
	return h
}

// seqRecord is a stored record tagged with its global insertion sequence
// number, so merge-on-read iteration can reconstruct insertion order
// across shards.
type seqRecord struct {
	seq uint64
	rec Record
}

// shard is one lock stripe of the store: a records slice with
// shard-local region/ASN indexes. The metric cells of the shard's
// (dataset, region) pairs live in the same-numbered stripe of the
// store's Sketcher.
type shard struct {
	mu        sync.RWMutex
	records   []seqRecord
	byRegion  map[string][]int
	byASN     map[uint32][]int
	byDataset map[string]int
}

func newShard() *shard {
	return &shard{
		byRegion:  make(map[string][]int),
		byASN:     make(map[uint32][]int),
		byDataset: make(map[string]int),
	}
}

// insertLocked appends a validated, dedup-cleared record. The caller
// holds sh.mu. Records are append-only: a stored record is never
// modified, so a pointer to one taken under the read lock (Select,
// Gather) stays valid and unchanged after the lock is released.
func (sh *shard) insertLocked(seq uint64, r Record) {
	idx := len(sh.records)
	sh.records = append(sh.records, seqRecord{seq: seq, rec: r})
	sh.byRegion[r.Region] = append(sh.byRegion[r.Region], idx)
	if r.ASN != 0 {
		sh.byASN[r.ASN] = append(sh.byASN[r.ASN], idx)
	}
	sh.byDataset[r.Dataset]++
}

// candidatesLocked narrows the shard-local scan using indexes where the
// filter allows. The caller holds at least a read lock.
func (sh *shard) candidatesLocked(f Filter) []int {
	if f.ASN != 0 {
		return sh.byASN[f.ASN]
	}
	if f.RegionPrefix != "" {
		if exact, ok := sh.byRegion[f.RegionPrefix]; ok && !sh.hasDescendantsLocked(f.RegionPrefix) {
			return exact
		}
		var out []int
		for region, idxs := range sh.byRegion {
			if regionMatch(f.RegionPrefix, region) {
				out = append(out, idxs...)
			}
		}
		sort.Ints(out)
		return out
	}
	all := make([]int, len(sh.records))
	for i := range all {
		all[i] = i
	}
	return all
}

func (sh *shard) hasDescendantsLocked(prefix string) bool {
	for region := range sh.byRegion {
		if region != prefix && regionMatch(prefix, region) {
			return true
		}
	}
	return false
}

// idStripe is one stripe of the global (dataset, ID) uniqueness set.
type idStripe struct {
	mu  sync.Mutex
	ids map[string]struct{}
}
