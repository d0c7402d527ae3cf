package ingest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/telemetry"
)

func rec(id, region string) dataset.Record {
	r := dataset.NewRecord(id, "ndt", region, time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC))
	r.DownloadMbps = 100
	r.UploadMbps = 20
	r.LatencyMS = 15
	r.LossFrac = 0.001
	return r
}

func batchOf(prefix string, n int) []dataset.Record {
	rs := make([]dataset.Record, n)
	for i := range rs {
		rs[i] = rec(fmt.Sprintf("%s-%d", prefix, i), "XA-01-001")
	}
	return rs
}

func newIngester(t *testing.T, store *dataset.Store, o Options) *Ingester {
	t.Helper()
	ing, err := New(store, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	return ing
}

// TestEnqueueCommitsThroughStore pins the ack contract: a nil Enqueue
// means the records are visible in the store, commit hooks fired.
func TestEnqueueCommitsThroughStore(t *testing.T) {
	store := dataset.NewStore()
	var committed int
	var mu sync.Mutex
	store.AddHooks(dataset.Hooks{Commit: func(rs []dataset.Record) {
		mu.Lock()
		committed += len(rs)
		mu.Unlock()
	}})
	ing := newIngester(t, store, Options{})
	if err := ing.Enqueue(batchOf("a", 10), 100); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 10 {
		t.Fatalf("store holds %d records after ack, want 10", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if committed != 10 {
		t.Fatalf("commit hooks saw %d records by ack time, want 10", committed)
	}
	st := ing.Stats()
	if st.AcceptedRecords != 10 || st.AcceptedBatches != 1 {
		t.Fatalf("stats = %+v, want 10 accepted records in 1 batch", st)
	}
	if st.QueuedRecords != 0 || st.QueuedBytes != 0 {
		t.Fatalf("queue not drained after ack: %+v", st)
	}
}

// TestAdmissionRejectsWhenFull pins the overload contract: with the
// drainer wedged behind a gated ingest hook, enqueues past the record
// budget are rejected immediately with a typed *OverloadError, and the
// rejected batch never appears in the store.
func TestAdmissionRejectsWhenFull(t *testing.T) {
	store := dataset.NewStore()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	store.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error {
		<-gate
		return nil
	}})
	ing := newIngester(t, store, Options{QueueRecords: 16})

	// Fill the queue: the first batch is swapped out by the drainer and
	// blocks in the hook; its budget share is still held.
	errs := make(chan error, 2)
	go func() { errs <- ing.Enqueue(batchOf("held", 8), 0) }()
	waitFor(t, func() bool { return ing.Stats().QueuedRecords == 8 })
	go func() { errs <- ing.Enqueue(batchOf("queued", 8), 0) }()
	waitFor(t, func() bool { return ing.Stats().QueuedRecords == 16 })

	err := ing.Enqueue(batchOf("shed", 4), 0)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("enqueue past the budget = %v, want ErrOverload", err)
	}
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("overload error is %T, want *OverloadError", err)
	}
	if over.QueuedRecords != 16 || over.BatchRecords != 4 {
		t.Fatalf("overload detail = %+v", over)
	}

	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted batch errored: %v", err)
		}
	}
	if got := store.Len(); got != 16 {
		t.Fatalf("store holds %d records, want the 16 admitted (shed batch must never appear)", got)
	}
	st := ing.Stats()
	if st.RejectedBatches != 1 || st.RejectedRecords != 4 {
		t.Fatalf("rejection counters = %+v", st)
	}
}

// TestByteBudgetRejects pins the second admission dimension.
func TestByteBudgetRejects(t *testing.T) {
	store := dataset.NewStore()
	gate := make(chan struct{})
	defer close(gate)
	store.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error { <-gate; return nil }})
	ing := newIngester(t, store, Options{QueueBytes: 1000})
	go ing.Enqueue(batchOf("a", 1), 900) //nolint — ack consumed after gate opens
	waitFor(t, func() bool { return ing.Stats().QueuedBytes == 900 })
	if err := ing.Enqueue(batchOf("b", 1), 200); !errors.Is(err, ErrOverload) {
		t.Fatalf("enqueue past the byte budget = %v, want ErrOverload", err)
	}
}

// TestOversizedBatchNeverAdmissible: a batch larger than the whole
// queue is rejected even when the queue is empty.
func TestOversizedBatchNeverAdmissible(t *testing.T) {
	ing := newIngester(t, dataset.NewStore(), Options{QueueRecords: 4})
	if err := ing.Enqueue(batchOf("big", 5), 0); !errors.Is(err, ErrOverload) {
		t.Fatalf("oversized batch = %v, want ErrOverload", err)
	}
}

// TestMergedFailureIsolatesOffendingBatch: when two clients' batches
// merge and one poisons the merged AddBatch (duplicate ID), only that
// client errors; the other's records land.
func TestMergedFailureIsolatesOffendingBatch(t *testing.T) {
	store := dataset.NewStore()
	// Pre-claim the ID the poisoned batch will collide with.
	if err := store.Add(rec("poison-0", "XA-01-001")); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var gated sync.Once
	store.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error {
		// Hold only the first drain round so both client batches are
		// queued together and merge in round two.
		gated.Do(func() { <-gate })
		return nil
	}})
	ing := newIngester(t, store, Options{})

	// Wedge the drainer on a sacrificial batch.
	wedge := make(chan error, 1)
	go func() { wedge <- ing.Enqueue(batchOf("wedge", 1), 0) }()
	waitFor(t, func() bool { return ing.Stats().QueuedRecords == 1 })

	good := make(chan error, 1)
	bad := make(chan error, 1)
	go func() { good <- ing.Enqueue(batchOf("good", 4), 0) }()
	go func() { bad <- ing.Enqueue(batchOf("poison", 2), 0) }()
	waitFor(t, func() bool { return ing.Stats().QueuedRecords == 7 })
	close(gate)

	if err := <-wedge; err != nil {
		t.Fatalf("wedge batch: %v", err)
	}
	if err := <-good; err != nil {
		t.Fatalf("good batch rejected alongside its poisoned neighbor: %v", err)
	}
	if err := <-bad; !errors.Is(err, dataset.ErrDuplicate) {
		t.Fatalf("poisoned batch = %v, want ErrDuplicate", err)
	}
	// 1 pre-claimed + 1 wedge + 4 good; the poisoned batch contributed
	// nothing (AddBatch atomicity).
	if got := store.Len(); got != 6 {
		t.Fatalf("store holds %d records, want 6", got)
	}
	if st := ing.Stats(); st.FailedBatches != 1 {
		t.Fatalf("failed batches = %d, want 1", st.FailedBatches)
	}
}

// TestCloseDrainsAdmittedBatches pins the shutdown contract: batches
// admitted before Close are committed and acknowledged, not failed.
func TestCloseDrainsAdmittedBatches(t *testing.T) {
	store := dataset.NewStore()
	gate := make(chan struct{})
	store.AddHooks(dataset.Hooks{Ingest: func(rs []dataset.Record) error {
		<-gate
		return nil
	}})
	ing, err := New(store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acks := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() { acks <- ing.Enqueue(batchOf(fmt.Sprintf("c%d", i), 4), 0) }()
	}
	waitFor(t, func() bool { return ing.Stats().QueuedRecords == 12 })

	closed := make(chan struct{})
	go func() { ing.Close(); close(closed) }()
	// Close must wait for the drain; release the gate and the admitted
	// batches must all ack nil.
	close(gate)
	<-closed
	for i := 0; i < 3; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("batch admitted before Close errored: %v", err)
		}
	}
	if got := store.Len(); got != 12 {
		t.Fatalf("store holds %d records after drain-on-close, want 12", got)
	}
	if err := ing.Enqueue(batchOf("late", 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentEnqueueDeterministic: many concurrent writers, every
// ack honored, store ends with exactly the acked records — exercised
// under -race.
func TestConcurrentEnqueueDeterministic(t *testing.T) {
	store := dataset.NewStore()
	ing := newIngester(t, store, Options{DrainRecords: 64})
	const writers, batches, per = 8, 20, 5
	var wg sync.WaitGroup
	errCh := make(chan error, writers*batches)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				errCh <- ing.Enqueue(batchOf(fmt.Sprintf("w%d-b%d", w, b), per), int64(per))
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if got, want := store.Len(), writers*batches*per; got != want {
		t.Fatalf("store holds %d records, want %d", got, want)
	}
	st := ing.Stats()
	if st.AcceptedRecords != uint64(writers*batches*per) {
		t.Fatalf("accepted records = %d, want %d", st.AcceptedRecords, writers*batches*per)
	}
	if st.MaxDrainRecords > 64+per {
		t.Fatalf("max drain %d exceeds cap %d by more than one batch", st.MaxDrainRecords, 64)
	}
}

// TestMetricsRegistered: the registry exposes the queue and admission
// series and they move.
func TestMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := dataset.NewStore()
	ing := newIngester(t, store, Options{Metrics: reg, QueueRecords: 4})
	if err := ing.Enqueue(batchOf("m", 2), 10); err != nil {
		t.Fatal(err)
	}
	if err := ing.Enqueue(batchOf("n", 8), 10); !errors.Is(err, ErrOverload) {
		t.Fatalf("want overload, got %v", err)
	}
	text := scrape(t, reg)
	for _, want := range []string{
		"iqb_ingest_queue_records 0",
		"iqb_ingest_accepted_records_total 2",
		"iqb_ingest_rejected_records_total 8",
		"iqb_ingest_drains_total 1",
	} {
		if !contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
}

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func contains(text, want string) bool { return strings.Contains(text, want) }

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
