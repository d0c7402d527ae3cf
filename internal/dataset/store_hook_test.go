package dataset

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func hookTestRecord(id string) Record {
	r := NewRecord(id, "ndt", "XA-01", time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC))
	r.DownloadMbps = 100
	return r
}

// TestIngestHookVetoLeavesStoreUnchanged is the contract the
// persistence layer leans on: a batch whose durable tee fails must not
// reach the row log, and must claim no (dataset, ID), so the same
// records can be retried once the WAL recovers.
func TestIngestHookVetoLeavesStoreUnchanged(t *testing.T) {
	s := NewStore()
	if err := s.Add(hookTestRecord("pre")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	remove := s.AddHooks(Hooks{Ingest: func(rs []Record) error { return boom }})

	batch := []Record{hookTestRecord("a"), hookTestRecord("b")}
	if err := s.AddBatch(batch); !errors.Is(err, boom) {
		t.Fatalf("AddBatch error = %v, want wrapped %v", err, boom)
	}
	if err := s.Add(hookTestRecord("c")); !errors.Is(err, boom) {
		t.Fatalf("Add error = %v, want wrapped %v", err, boom)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("store has %d records after vetoed writes, want 1", got)
	}

	// The veto must have claimed no ID: the same records succeed once
	// the hook is removed.
	remove()
	if err := s.AddBatch(batch); err != nil {
		t.Fatalf("retry after veto: %v", err)
	}
	if err := s.Add(hookTestRecord("c")); err != nil {
		t.Fatalf("retry after veto: %v", err)
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("store has %d records, want 4", got)
	}
}

// TestIngestHookSeesEveryRecord checks completeness: every record that
// lands in the store passed through the hook first (the veto test above
// proves "first" — a vetoed batch never reaches the row log).
func TestIngestHookSeesEveryRecord(t *testing.T) {
	s := NewStore()
	var teed []string
	s.AddHooks(Hooks{Ingest: func(rs []Record) error {
		for _, r := range rs {
			teed = append(teed, r.ID)
		}
		return nil
	}})
	if err := s.AddBatch([]Record{hookTestRecord("a"), hookTestRecord("b")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(hookTestRecord("c")); err != nil {
		t.Fatal(err)
	}
	if len(teed) != 3 {
		t.Fatalf("hook saw %d records, want 3", len(teed))
	}
	if s.Len() != 3 {
		t.Fatalf("store has %d records, want 3", s.Len())
	}
}

// TestQuiesceSeesNoInFlightWrites pins the snapshot-consistency
// invariant: under Quiesce, the number of records the hook has
// acknowledged equals the number of records visible in the store — a
// writer is never caught between its durable tee and its insert. Without that guarantee a snapshot could claim a WAL offset
// whose records it does not contain, and compaction would lose them.
func TestQuiesceSeesNoInFlightWrites(t *testing.T) {
	s := NewStore()
	var mu sync.Mutex
	acked := 0
	s.AddHooks(Hooks{Ingest: func(rs []Record) error {
		mu.Lock()
		acked += len(rs)
		mu.Unlock()
		return nil
	}})

	const writers, batches, per = 4, 20, 5
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Record, per)
				for i := range batch {
					batch[i] = hookTestRecord(fmt.Sprintf("w%d-b%d-%d", w, b, i))
				}
				if err := s.AddBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	checker := make(chan struct{})
	go func() {
		defer close(checker)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Quiesce(func() {
				mu.Lock()
				a := acked
				mu.Unlock()
				if l := s.Len(); a != l {
					t.Errorf("quiesce saw %d acked but %d stored", a, l)
				}
			})
		}
	}()
	wg.Wait()
	close(stop)
	<-checker
	if want := writers * batches * per; s.Len() != want {
		t.Fatalf("store has %d records, want %d", s.Len(), want)
	}
}

// TestHookChainOrderAndCoexistence pins the multi-observer contract: a
// WAL-shaped tee and a cache-shaped observer registered on one store
// both see every batch, Ingest phases run in registration order, and
// Commit notifications fire only after the batch is fully visible.
func TestHookChainOrderAndCoexistence(t *testing.T) {
	s := NewStore()
	var trace []string
	s.AddHooks(Hooks{Ingest: func(rs []Record) error {
		trace = append(trace, fmt.Sprintf("wal:%d", len(rs)))
		return nil
	}})
	s.AddHooks(Hooks{
		Ingest: func(rs []Record) error {
			trace = append(trace, fmt.Sprintf("cache-pending:%d", len(rs)))
			return nil
		},
		Commit: func(rs []Record) {
			// The batch must already be queryable when Commit fires.
			// (Reading the store from a hook is safe — the view lock is
			// released before notifications run — it is writes that are
			// forbidden.)
			trace = append(trace, fmt.Sprintf("cache-commit:%d@len=%d", len(rs), s.Len()))
		},
	})

	if err := s.AddBatch([]Record{hookTestRecord("a"), hookTestRecord("b")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(hookTestRecord("c")); err != nil {
		t.Fatal(err)
	}
	want := []string{"wal:2", "cache-pending:2", "cache-commit:2@len=2", "wal:1", "cache-pending:1", "cache-commit:1@len=3"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("hook trace = %v, want %v", trace, want)
	}
}

// TestHookChainVetoStopsChain: when a hook vetoes, the error reaches
// the writer, the observers after it are not run, no observer's Commit
// fires, and the store is unchanged.
func TestHookChainVetoStopsChain(t *testing.T) {
	s := NewStore()
	var trace []string
	s.AddHooks(Hooks{
		Ingest: func(rs []Record) error { trace = append(trace, "first-ingest"); return nil },
		Commit: func(rs []Record) { trace = append(trace, "first-commit") },
	})
	boom := errors.New("tee failed")
	remove := s.AddHooks(Hooks{Ingest: func(rs []Record) error { return boom }})
	s.AddHooks(Hooks{
		Ingest: func(rs []Record) error { trace = append(trace, "last-ingest"); return nil },
		Commit: func(rs []Record) { trace = append(trace, "last-commit") },
	})

	if err := s.AddBatch([]Record{hookTestRecord("a")}); !errors.Is(err, boom) {
		t.Fatalf("AddBatch error = %v, want wrapped %v", err, boom)
	}
	if got := fmt.Sprint(trace); got != fmt.Sprint([]string{"first-ingest"}) {
		t.Fatalf("hook trace = %v", trace)
	}
	if s.Len() != 0 || len(s.Regions()) != 0 || len(s.DatasetCounts()) != 0 {
		t.Fatalf("vetoed batch reached the store: len=%d", s.Len())
	}

	// After removing the vetoing hook the batch lands and every
	// observer commits.
	remove()
	trace = nil
	if err := s.AddBatch([]Record{hookTestRecord("a")}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(trace); got != fmt.Sprint([]string{"first-ingest", "last-ingest", "first-commit", "last-commit"}) {
		t.Fatalf("hook trace after remove = %v", trace)
	}
}

// TestHookRemoveIsIdempotent: removing twice is harmless and removal
// only detaches the targeted observer.
func TestHookRemoveIsIdempotent(t *testing.T) {
	s := NewStore()
	calls := map[string]int{}
	removeA := s.AddHooks(Hooks{Ingest: func(rs []Record) error { calls["a"]++; return nil }})
	s.AddHooks(Hooks{Ingest: func(rs []Record) error { calls["b"]++; return nil }})
	removeA()
	removeA()
	if err := s.Add(hookTestRecord("x")); err != nil {
		t.Fatal(err)
	}
	if calls["a"] != 0 || calls["b"] != 1 {
		t.Fatalf("calls = %v, want only b once", calls)
	}
}
