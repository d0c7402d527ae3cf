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
// reach the shards, and its (dataset, ID) claims must be released so
// the same records can be retried once the WAL recovers.
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

	// The veto must have released the ID claims: the same records
	// succeed once the hook is removed.
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
// proves "first" — a vetoed batch never reaches the shards).
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
// writer is never caught between its durable tee and its shard
// mutation. Without that guarantee a snapshot could claim a WAL offset
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
// Commit notifications fire only after the batch is fully visible in
// the shards.
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
			// (Reading shard state from a hook is safe — shard locks are
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

// TestHookChainAbortOnVeto: when a later hook vetoes, observers earlier
// in the chain that already ran get an Abort so they can unwind
// whatever their Ingest phase set up, and their Commit never fires.
func TestHookChainAbortOnVeto(t *testing.T) {
	s := NewStore()
	var trace []string
	s.AddHooks(Hooks{
		Ingest: func(rs []Record) error { trace = append(trace, "first-ingest"); return nil },
		Commit: func(rs []Record) { trace = append(trace, "first-commit") },
		Abort:  func(rs []Record) { trace = append(trace, "first-abort") },
	})
	boom := errors.New("tee failed")
	remove := s.AddHooks(Hooks{Ingest: func(rs []Record) error { return boom }})

	if err := s.AddBatch([]Record{hookTestRecord("a")}); !errors.Is(err, boom) {
		t.Fatalf("AddBatch error = %v, want wrapped %v", err, boom)
	}
	if got := fmt.Sprint(trace); got != fmt.Sprint([]string{"first-ingest", "first-abort"}) {
		t.Fatalf("hook trace = %v", trace)
	}
	if s.Len() != 0 {
		t.Fatalf("vetoed batch reached the shards: len=%d", s.Len())
	}

	// After removing the vetoing hook the batch lands and the surviving
	// observer commits.
	remove()
	trace = nil
	if err := s.AddBatch([]Record{hookTestRecord("a")}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(trace); got != fmt.Sprint([]string{"first-ingest", "first-commit"}) {
		t.Fatalf("hook trace after remove = %v", trace)
	}
}

// TestAbortSkipsIngestlessObservers: an observer with no Ingest phase
// was never told about the batch, so a veto must not send it a
// spurious Abort (which could corrupt accounting it keeps for other,
// genuinely in-flight batches).
func TestAbortSkipsIngestlessObservers(t *testing.T) {
	s := NewStore()
	aborts := 0
	s.AddHooks(Hooks{
		Commit: func(rs []Record) {},
		Abort:  func(rs []Record) { aborts++ },
	})
	boom := errors.New("tee failed")
	s.AddHooks(Hooks{Ingest: func(rs []Record) error { return boom }})
	if err := s.AddBatch([]Record{hookTestRecord("a")}); !errors.Is(err, boom) {
		t.Fatalf("expected veto, got %v", err)
	}
	if aborts != 0 {
		t.Fatalf("Ingest-less observer got %d aborts, want 0", aborts)
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
