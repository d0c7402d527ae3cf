package ingest_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/ingest"
	"iqb/internal/persist"
)

// BenchmarkEnqueueParallel measures the write path where its folding
// lives: 1/4/16 writers enqueue 50-record batches into an ingester over
// a fsynced WAL-backed store. The drainer merges whatever queued during
// the commit in flight into one AddBatch, one WAL frame and one fsync,
// so fsyncs/batch is 1.0 with one writer and shrinks with writer count.
func BenchmarkEnqueueParallel(b *testing.B) {
	const per = 50
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			m, err := persist.Open(b.TempDir(), persist.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			ing, err := ingest.New(m.Store(), ingest.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer ing.Close()
			batches := make([][]dataset.Record, b.N)
			for i := range batches {
				batches[i] = benchBatch(fmt.Sprintf("bench-%d", i), per)
			}
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
						if err := ing.Enqueue(batches[i], 0); err != nil {
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
			b.ReportMetric(float64(m.Status().WALWrite.Fsyncs)/float64(b.N), "fsyncs/batch")
			b.ReportMetric(float64(per), "records/op")
		})
	}
}

func benchBatch(prefix string, n int) []dataset.Record {
	rs := make([]dataset.Record, n)
	for i := range rs {
		r := dataset.NewRecord(fmt.Sprintf("%s-%d", prefix, i), "ndt", "XA-01-001",
			time.Date(2025, 6, 1, i%24, 0, 0, 0, time.UTC))
		r.DownloadMbps = float64(1 + i%500)
		r.UploadMbps = float64(1 + i%50)
		r.LatencyMS = float64(5 + i%90)
		r.LossFrac = 0.001
		rs[i] = r
	}
	return rs
}
