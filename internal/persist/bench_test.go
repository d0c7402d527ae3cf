package persist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"iqb/internal/dataset"
	"iqb/internal/pipeline"
)

// benchBatches pre-builds distinct batches so the benchmark loop
// measures ingestion, not record construction.
func benchBatches(n, per int) [][]dataset.Record {
	out := make([][]dataset.Record, n)
	for i := range out {
		out[i] = walBatch(fmt.Sprintf("bench-%d", i), per)
	}
	return out
}

// BenchmarkIngest compares store ingest throughput with the WAL tee
// off, on without fsync, and on with fsync — the durability tax the
// paper's "decoupled acquisition" architecture pays per batch.
func BenchmarkIngest(b *testing.B) {
	const per = 256
	for _, mode := range []string{"memory", "wal-nosync", "wal-fsync"} {
		b.Run(mode, func(b *testing.B) {
			batches := benchBatches(b.N, per)
			var store *dataset.Store
			switch mode {
			case "memory":
				store = dataset.NewStore()
			default:
				m, err := Open(b.TempDir(), Options{NoSync: mode == "wal-nosync"})
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				store = m.Store()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := store.AddBatch(batches[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(per), "records/op")
		})
	}
}

// BenchmarkIngestParallel measures the write-path cost group commit
// exists to amortize: 1/4/16 parallel writers pushing batches through
// the fsynced WAL. The fsyncs/batch metric shows the sharing directly:
// 1.0 with one writer, shrinking with writer count.
func BenchmarkIngestParallel(b *testing.B) {
	const per = 64
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d/group-commit", writers), func(b *testing.B) {
			m, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			store := m.Store()
			batches := benchBatches(b.N, per)
			b.ResetTimer()
			var next atomic.Int64
			next.Store(-1)
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for w := 0; w < writers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i >= int64(b.N) {
							return
						}
						if err := store.AddBatch(batches[i]); err != nil {
							errs[w] = err
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			st := m.Status()
			b.ReportMetric(float64(st.WALWrite.Fsyncs)/float64(b.N), "fsyncs/batch")
			b.ReportMetric(float64(per), "records/op")
		})
	}
}

// benchSpec is the workload both recovery benchmarks restore: large
// enough that pipeline simulation visibly dominates file reads.
func benchSpec() pipeline.Spec {
	spec := pipeline.DefaultSpec()
	spec.Geo.States = 2
	spec.Geo.CountiesPer = 2
	spec.TestsPerCounty = 50
	spec.Days = 3
	spec.OoklaMinGroup = 2
	return spec
}

// BenchmarkRecoverVsPipelineReplay is the tentpole's payoff measured:
// restoring a server's store by re-running the full measurement
// pipeline versus reading it back from snapshot + WAL. Both arms end
// with an identical store (the recovery test asserts bit-equality; this
// one measures time).
func BenchmarkRecoverVsPipelineReplay(b *testing.B) {
	spec := benchSpec()

	b.Run("pipeline-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := pipeline.Run(context.Background(), spec)
			if err != nil {
				b.Fatal(err)
			}
			if res.Store.Len() == 0 {
				b.Fatal("empty store")
			}
		}
	})

	for _, arm := range []struct {
		name     string
		snapshot bool
	}{
		{"recover-wal-only", false},
		{"recover-snapshot", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			dir := b.TempDir()
			m, err := Open(dir, Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			spec := spec
			spec.Store = m.Store()
			if _, err := pipeline.Run(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
			if arm.snapshot {
				if _, err := m.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := Open(dir, Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if m.Store().Len() == 0 {
					b.Fatal("empty recovered store")
				}
				m.Close()
			}
		})
	}
}
