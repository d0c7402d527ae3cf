package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"iqb/internal/stats"
)

// mkRec builds a minimal valid record for store tests.
func mkRec(id, ds, region string, asn uint32, down float64) Record {
	r := NewRecord(id, ds, region, t0)
	r.ASN = asn
	r.SetValue(Download, down)
	return r
}

func TestAddBatchAtomicOnMidBatchDuplicate(t *testing.T) {
	s := NewStore()
	if err := s.Add(mkRec("dup", "ndt", "XA-01-001", 1, 10)); err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		mkRec("a", "ndt", "XA-01-001", 1, 1),
		mkRec("b", "ndt", "XA-01-002", 1, 2),
		mkRec("dup", "ndt", "XA-02-001", 1, 3), // duplicate against the store
		mkRec("c", "ndt", "XA-02-002", 1, 4),
	}
	err := s.AddBatch(batch)
	if err == nil {
		t.Fatal("mid-batch duplicate should error")
	}
	if s.Len() != 1 {
		t.Fatalf("store partially updated: Len = %d, want 1", s.Len())
	}
	// The failed batch must not leave ID reservations behind: the
	// non-duplicate members are still insertable.
	if err := s.AddBatch([]Record{batch[0], batch[1], batch[3]}); err != nil {
		t.Fatalf("retry without the duplicate failed: %v", err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

func TestAddBatchRejectsIntraBatchDuplicate(t *testing.T) {
	s := NewStore()
	err := s.AddBatch([]Record{
		mkRec("a", "ndt", "XA-01-001", 1, 1),
		mkRec("a", "ndt", "XA-99-001", 1, 2), // same (dataset, ID), other region
	})
	if err == nil {
		t.Fatal("intra-batch duplicate should error")
	}
	if s.Len() != 0 {
		t.Fatalf("store partially updated: Len = %d", s.Len())
	}
}

func TestAddBatchValidatesBeforeMutating(t *testing.T) {
	s := NewStore()
	err := s.AddBatch([]Record{mkRec("a", "ndt", "XA", 0, 1), {}})
	if err == nil {
		t.Fatal("invalid record should error")
	}
	if s.Len() != 0 {
		t.Fatalf("store mutated before validation finished: Len = %d", s.Len())
	}
}

func TestDuplicateAcrossRegionsRejected(t *testing.T) {
	// The dedup key is (dataset, ID) regardless of region, so the same ID
	// in another region — which lands in a different shard — must still
	// be caught.
	s := NewStore()
	if err := s.Add(mkRec("id1", "ndt", "XA-01-001", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mkRec("id1", "ndt", "XB-07-003", 1, 2)); err == nil {
		t.Fatal("cross-region duplicate should error")
	}
}

// TestConcurrentBatchesAndQueries is the race-detector workout: parallel
// AddBatch and Add writers against Select/Gather/Aggregate/
// AggregateCells/TimeBounds readers.
func TestConcurrentBatchesAndQueries(t *testing.T) {
	s := NewStoreWith(Options{Shards: 8, SketchCutover: 64})
	const (
		writers = 4
		batches = 20
		perB    = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]Record, perB)
				for i := range batch {
					region := fmt.Sprintf("XA-%02d-%03d", w+1, b%5+1)
					id := fmt.Sprintf("w%d-b%d-i%d", w, b, i)
					batch[i] = mkRec(id, "ndt", region, uint32(w+1), float64(b*perB+i))
				}
				if err := s.AddBatch(batch); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}(w)
	}
	readers := 4
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Select(Filter{RegionPrefix: "XA-01"})
				v := s.Gather(Filter{RegionPrefix: "XA-02", From: t0}, []string{"ndt"})
				for _, r := range v.Rows {
					r.Value(Download)
					v.DatasetIndex(r)
				}
				s.Aggregate(Filter{Dataset: "ndt", RegionPrefix: "XA"}, Download, 95)
				s.Sketcher().AggregateCells("XA-01", []CellQuery{
					{Dataset: "ndt", Metric: Download, Q: 95},
					{Metric: Download, Q: 5},
				})
				s.TimeBounds(Filter{})
				s.DatasetCounts()
				s.Regions()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	for w := 0; w < writers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if want := writers * batches * perB; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

// TestConcurrentBuildDeterministicAggregates asserts the store-level half
// of the pipeline's determinism contract: however concurrent insertion
// interleaves, every aggregate answer is a pure function of the record
// multiset — including cells promoted to sketches.
func TestConcurrentBuildDeterministicAggregates(t *testing.T) {
	const n = 4000
	records := make([]Record, n)
	src := rand.New(rand.NewSource(3))
	for i := range records {
		region := fmt.Sprintf("XA-%02d-%03d", i%3+1, i%7+1)
		records[i] = mkRec(fmt.Sprintf("r%d", i), "ndt", region, uint32(i%4+1), math.Exp(src.NormFloat64()+4))
	}
	build := func(workers int) *Store {
		s := NewStoreWith(Options{Shards: 8, SketchCutover: 50})
		var wg sync.WaitGroup
		per := n / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(chunk []Record) {
				defer wg.Done()
				for len(chunk) > 0 {
					k := 17 // deliberately odd batch size
					if k > len(chunk) {
						k = len(chunk)
					}
					if err := s.AddBatch(chunk[:k]); err != nil {
						panic(err)
					}
					chunk = chunk[k:]
				}
			}(records[w*per : (w+1)*per])
		}
		wg.Wait()
		return s
	}
	a, b := build(1), build(4)
	for _, q := range []float64{5, 50, 95} {
		for _, prefix := range []string{"", "XA", "XA-01", "XA-02-003"} {
			f := Filter{Dataset: "ndt", RegionPrefix: prefix}
			va, na, ea := a.Aggregate(f, Download, q)
			vb, nb, eb := b.Aggregate(f, Download, q)
			if (ea == nil) != (eb == nil) || va != vb || na != nb {
				t.Errorf("q=%v prefix=%q: 1-worker (%v, %d, %v) vs 4-worker (%v, %d, %v)",
					q, prefix, va, na, ea, vb, nb, eb)
			}
		}
	}
	if ra, rb := a.Regions(), b.Regions(); !slices.Equal(ra, rb) {
		t.Fatalf("regions differ: %v vs %v", ra, rb)
	}
	for _, region := range a.Regions() {
		f := Filter{RegionPrefix: region}
		va, na, ea := a.Aggregate(f, Download, 95)
		vb, nb, eb := b.Aggregate(f, Download, 95)
		if ea != nil || eb != nil || va != vb || na != nb {
			t.Errorf("region %s: 1-worker (%v, %d, %v) vs 4-worker (%v, %d, %v)", region, va, na, ea, vb, nb, eb)
		}
	}
}

func TestSketchPromotionAccuracyAndCount(t *testing.T) {
	const cutover = 32
	s := NewStoreWith(Options{SketchCutover: cutover, SketchAlpha: 0.01})
	src := rand.New(rand.NewSource(5))
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = math.Exp(src.NormFloat64() * 1.2)
		if err := s.Add(mkRec(fmt.Sprintf("r%d", i), "ndt", "XA-01-001", 1, vals[i])); err != nil {
			t.Fatal(err)
		}
	}
	f := Filter{Dataset: "ndt", RegionPrefix: "XA-01-001"}
	for _, q := range []float64{5, 50, 95} {
		got, n, err := s.Aggregate(f, Download, q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(vals) {
			t.Errorf("count = %d, want %d", n, len(vals))
		}
		exact, err := stats.Percentile(vals, q)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Errorf("q=%v: sketch-served %v vs exact %v (rel err %v)", q, got, exact, rel)
		}
	}
	// Filters the sketch cells cannot express still answer exactly.
	gotASN, _, err := s.Aggregate(Filter{Dataset: "ndt", ASN: 1}, Download, 50)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := stats.Percentile(vals, 50)
	if gotASN != exact {
		t.Errorf("ASN-filtered aggregate = %v, want exact %v", gotASN, exact)
	}
}

func TestAggregateExactBelowCutover(t *testing.T) {
	// Below the cutover the sketch path must be bit-identical to a scan.
	s := NewStore()
	vals := []float64{100, 50, 10, 75, 33}
	for i, v := range vals {
		if err := s.Add(mkRec(fmt.Sprintf("r%d", i), "ndt", "XA-01-001", 1, v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 17, 50, 95, 100} {
		got, _, err := s.Aggregate(Filter{Dataset: "ndt", RegionPrefix: "XA"}, Download, q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := stats.Percentile(vals, q)
		if got != want {
			t.Errorf("q=%v: %v != exact %v", q, got, want)
		}
	}
}

func TestSelectPreservesInsertionOrder(t *testing.T) {
	s := NewStore()
	var want []string
	for i := 0; i < 200; i++ {
		// Spread across regions (hence shards) on purpose.
		region := fmt.Sprintf("XA-%02d-%03d", i%5+1, i%11+1)
		id := fmt.Sprintf("r%d", i)
		if err := s.Add(mkRec(id, "ndt", region, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	got := s.Select(Filter{})
	if len(got) != len(want) {
		t.Fatalf("Select returned %d records", len(got))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Fatalf("record %d = %s, want %s (insertion order broken)", i, r.ID, want[i])
		}
	}
	// Values follows the same contract.
	vals := s.Values(Filter{}, Download)
	for i, v := range vals {
		if v != float64(i) {
			t.Fatalf("value %d = %v (insertion order broken)", i, v)
		}
	}
}

func TestAddBatchEmpty(t *testing.T) {
	s := NewStore()
	if err := s.AddBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch([]Record{}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("empty batch mutated store")
	}
}

func TestAggregateNoData(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Aggregate(Filter{Dataset: "ndt"}, Download, 50); !errors.Is(err, stats.ErrNoData) {
		t.Errorf("want ErrNoData, got %v", err)
	}
	if _, _, err := s.Aggregate(Filter{ASN: 7}, Download, 50); !errors.Is(err, stats.ErrNoData) {
		t.Errorf("exact fallback: want ErrNoData, got %v", err)
	}
}

func TestStoreOptionsDefaults(t *testing.T) {
	s := NewStoreWith(Options{})
	if len(s.shards) != DefaultShards {
		t.Errorf("shards = %d, want %d", len(s.shards), DefaultShards)
	}
	if s2 := NewStoreWith(Options{Shards: 3}); len(s2.shards) != 3 {
		t.Errorf("shards = %d, want 3", len(s2.shards))
	}
}
