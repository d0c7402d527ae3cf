// Package ingest turns the dataset store's synchronous write path into
// an admission-controlled streaming pipeline: writers enqueue record
// batches cheaply and block for a durable acknowledgment, while a
// single drainer goroutine swaps the whole pending queue and feeds it
// to Store.AddBatch in large merged batches. The drainer is the write
// path's one group commit: the WAL tee underneath appends each merged
// batch as one frame with one fsync, so a flood of small client
// batches costs a few fsyncs, and the score cache and snapshot-growth
// hooks fire exactly as they would for a direct AddBatch.
//
// # Admission control
//
// The queue is bounded twice, by records and by bytes. Enqueue admits a
// batch only if both budgets still hold it; otherwise it returns an
// *OverloadError (matching ErrOverload) immediately, without blocking —
// the caller sheds load (HTTP answers 429 + Retry-After) instead of
// queueing unboundedly. Queued work counts against the budgets until
// its commit completes, so a slow disk backpressures admission rather
// than letting memory grow while the drainer fsyncs.
//
// # Acknowledgment contract
//
// Enqueue returns nil only after the batch has cleared the store's full
// ingest path: validated, deduplicated, teed to the WAL (fsynced, when
// the store is WAL-backed), visible to every read, and commit hooks
// fired. An acknowledged batch therefore survives kill-and-restart
// bit-identically; an errored batch was never applied (AddBatch is
// atomic per batch). Close mirrors the WAL's own semantics: batches
// already admitted are drained and acknowledged durably, not failed.
//
// # Failure isolation
//
// The drainer merges admitted batches into one AddBatch call per drain
// round (capped by Options.DrainRecords). A merged batch that fails —
// one client's duplicate ID, say — is retried batch by batch, so every
// client gets exactly its own verdict and one poisoned request cannot
// reject its neighbors.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"iqb/internal/dataset"
	"iqb/internal/telemetry"
)

// Defaults chosen so a laptop-scale server admits a few seconds of
// heavy ingest before shedding: ~64k records or 64 MiB queued, drained
// in 8k-record merged batches.
const (
	DefaultQueueRecords = 64 << 10
	DefaultQueueBytes   = 64 << 20
	DefaultDrainRecords = 8 << 10
)

// ErrOverload marks an admission rejection: the queue cannot hold the
// batch within its record and byte budgets. Match with errors.Is; the
// concrete *OverloadError carries the queue state at rejection time.
var ErrOverload = errors.New("ingest: queue overloaded")

// ErrClosed is returned by Enqueue after Close has begun.
var ErrClosed = errors.New("ingest: ingester is closed")

// OverloadError is the typed admission rejection.
type OverloadError struct {
	// QueuedRecords and QueuedBytes are the queue occupancy that
	// rejected the batch (admitted work not yet committed).
	QueuedRecords int
	QueuedBytes   int64
	// BatchRecords and BatchBytes size the rejected batch.
	BatchRecords int
	BatchBytes   int64
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("ingest: queue overloaded (%d records / %d bytes queued; batch of %d records / %d bytes rejected)",
		e.QueuedRecords, e.QueuedBytes, e.BatchRecords, e.BatchBytes)
}

// Is makes errors.Is(err, ErrOverload) hold for every *OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// Options configures an Ingester. The zero value selects all defaults.
type Options struct {
	// QueueRecords caps admitted-but-uncommitted records; <= 0 means
	// DefaultQueueRecords. A single batch larger than the cap is never
	// admissible and is always rejected with an *OverloadError.
	QueueRecords int
	// QueueBytes caps admitted-but-uncommitted wire bytes; <= 0 means
	// DefaultQueueBytes.
	QueueBytes int64
	// DrainRecords caps how many records the drainer merges into one
	// AddBatch call (whole client batches only — a batch is never
	// split); <= 0 means DefaultDrainRecords.
	DrainRecords int
	// Metrics, when non-nil, registers the ingester's queue gauges,
	// admission counters, and drain/commit-latency histograms.
	Metrics *telemetry.Registry
}

// Stats is a point-in-time view of the pipeline, shaped for /v1/health.
type Stats struct {
	// QueuedRecords and QueuedBytes are admitted work not yet
	// committed (including the drain in flight).
	QueuedRecords int   `json:"queued_records"`
	QueuedBytes   int64 `json:"queued_bytes"`
	// AcceptedBatches/Records count enqueues acknowledged durable.
	AcceptedBatches uint64 `json:"accepted_batches"`
	AcceptedRecords uint64 `json:"accepted_records"`
	// RejectedBatches/Records count admission rejections (overload).
	RejectedBatches uint64 `json:"rejected_batches"`
	RejectedRecords uint64 `json:"rejected_records"`
	// FailedBatches counts admitted batches whose commit errored
	// (validation, duplicate, or WAL failure surfaced to the writer).
	FailedBatches uint64 `json:"failed_batches"`
	// Drains counts drainer rounds; MaxDrainRecords is the largest
	// merged batch one round has committed.
	Drains          uint64 `json:"drains"`
	MaxDrainRecords int    `json:"max_drain_records"`
}

// batch is one writer's enqueued work. done is answered exactly once
// with the batch's own commit verdict.
type batch struct {
	rs    []dataset.Record
	bytes int64
	done  chan error
	stop  func() // commit-latency observation, armed at enqueue
}

// Ingester is the admission-controlled write pipeline over one store.
// Safe for concurrent use.
type Ingester struct {
	store        *dataset.Store
	maxRecords   int
	maxBytes     int64
	drainRecords int

	// Queue state. Writers append under mu; the drainer swaps the
	// whole pending slice out (queue-and-swap: admission never waits
	// behind a commit in flight).
	mu            sync.Mutex
	cond          *sync.Cond
	pending       []*batch
	queuedRecords int
	queuedBytes   int64
	closed        bool
	drainerDone   chan struct{}

	// Lock-free counters; collectors only Load.
	acceptedBatches atomic.Uint64
	acceptedRecords atomic.Uint64
	rejectedBatches atomic.Uint64
	rejectedRecords atomic.Uint64
	failedBatches   atomic.Uint64
	drains          atomic.Uint64
	maxDrain        atomic.Int64 // written only by the drainer goroutine

	// Owned telemetry (nil-safe no-ops without a registry).
	drainSize     *telemetry.Histogram // records per merged commit
	commitSeconds *telemetry.Histogram // enqueue -> durable ack latency
}

// New builds an ingester over the store and starts its drainer. The
// store may be WAL-backed or memory-only; the ingester only sees
// AddBatch. Call Close to drain and stop.
func New(store *dataset.Store, o Options) (*Ingester, error) {
	if store == nil {
		return nil, fmt.Errorf("ingest: store is required")
	}
	if o.QueueRecords <= 0 {
		o.QueueRecords = DefaultQueueRecords
	}
	if o.QueueBytes <= 0 {
		o.QueueBytes = DefaultQueueBytes
	}
	if o.DrainRecords <= 0 {
		o.DrainRecords = DefaultDrainRecords
	}
	ing := &Ingester{
		store:        store,
		maxRecords:   o.QueueRecords,
		maxBytes:     o.QueueBytes,
		drainRecords: o.DrainRecords,
		drainerDone:  make(chan struct{}),
	}
	ing.cond = sync.NewCond(&ing.mu)
	ing.registerMetrics(o.Metrics)
	go ing.drainer()
	return ing, nil
}

// registerMetrics exposes the pipeline on r (nil runs uninstrumented).
// Collectors read atomics or take the short queue mutex — a scrape
// never waits behind a commit's fsync.
func (ing *Ingester) registerMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	ing.drainSize = r.Histogram("iqb_ingest_drain_records",
		"Records committed per drainer round (merged client batches).", nil)
	ing.commitSeconds = r.Histogram("iqb_ingest_commit_seconds",
		"Latency from enqueue to durable acknowledgment.", nil)
	r.GaugeFunc("iqb_ingest_queue_records",
		"Admitted records not yet committed.", nil,
		func() float64 {
			ing.mu.Lock()
			defer ing.mu.Unlock()
			return float64(ing.queuedRecords)
		})
	r.GaugeFunc("iqb_ingest_queue_bytes",
		"Admitted wire bytes not yet committed.", nil,
		func() float64 {
			ing.mu.Lock()
			defer ing.mu.Unlock()
			return float64(ing.queuedBytes)
		})
	r.CounterFunc("iqb_ingest_accepted_records_total",
		"Records acknowledged durable through the ingest pipeline.", nil,
		func() float64 { return float64(ing.acceptedRecords.Load()) })
	r.CounterFunc("iqb_ingest_rejected_records_total",
		"Records rejected at admission (queue overload).", nil,
		func() float64 { return float64(ing.rejectedRecords.Load()) })
	r.CounterFunc("iqb_ingest_failed_batches_total",
		"Admitted batches whose commit errored.", nil,
		func() float64 { return float64(ing.failedBatches.Load()) })
	r.CounterFunc("iqb_ingest_drains_total",
		"Drainer rounds (each one swap of the pending queue).", nil,
		func() float64 { return float64(ing.drains.Load()) })
}

// DrainRecords reports the drainer's merged-batch record cap — the
// natural chunk size for callers slicing a stream into enqueues.
func (ing *Ingester) DrainRecords() int { return ing.drainRecords }

// Enqueue admits the batch and blocks until it is durably committed
// (nil) or definitively not applied (non-nil). wireBytes is the batch's
// encoded size for the byte budget; <= 0 means "records only". An
// *OverloadError (errors.Is ErrOverload) reports an admission
// rejection: the batch was not queued and will never appear; retry
// after backoff. ErrClosed reports an ingester already shutting down.
func (ing *Ingester) Enqueue(rs []dataset.Record, wireBytes int64) error {
	if len(rs) == 0 {
		return nil
	}
	if wireBytes < 0 {
		wireBytes = 0
	}
	b := &batch{rs: rs, bytes: wireBytes, done: make(chan error, 1), stop: ing.commitSeconds.Time()}
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return ErrClosed
	}
	if ing.queuedRecords+len(rs) > ing.maxRecords || ing.queuedBytes+wireBytes > ing.maxBytes {
		over := &OverloadError{
			QueuedRecords: ing.queuedRecords, QueuedBytes: ing.queuedBytes,
			BatchRecords: len(rs), BatchBytes: wireBytes,
		}
		ing.mu.Unlock()
		ing.rejectedBatches.Add(1)
		ing.rejectedRecords.Add(uint64(len(rs)))
		return over
	}
	ing.queuedRecords += len(rs)
	ing.queuedBytes += wireBytes
	ing.pending = append(ing.pending, b)
	ing.cond.Signal()
	ing.mu.Unlock()
	return <-b.done
}

// drainer is the single consumer: it swaps out everything pending,
// commits it in merged batches, and fans each batch's verdict back to
// its writer. It exits once the ingester is closed and the queue empty,
// so Close never strands an admitted batch.
func (ing *Ingester) drainer() {
	defer close(ing.drainerDone)
	for {
		ing.mu.Lock()
		for len(ing.pending) == 0 && !ing.closed {
			ing.cond.Wait()
		}
		if len(ing.pending) == 0 && ing.closed {
			ing.mu.Unlock()
			return
		}
		work := ing.pending
		ing.pending = nil
		ing.mu.Unlock()

		// Merge whole batches up to the drain cap; a single batch
		// larger than the cap still commits alone (never split, so
		// AddBatch's per-batch atomicity is preserved).
		for start := 0; start < len(work); {
			end := start
			records := 0
			for end < len(work) && (end == start || records+len(work[end].rs) <= ing.drainRecords) {
				records += len(work[end].rs)
				end++
			}
			ing.commitGroup(work[start:end], records)
			start = end
		}
	}
}

// commitGroup commits one merged group and acknowledges each member
// batch. A merged failure falls back to per-batch commits so only the
// offending batch errors.
func (ing *Ingester) commitGroup(group []*batch, records int) {
	// The round is counted before any ack wakes its writer, so a writer
	// whose Enqueue has returned finds its drain in Stats and /metrics.
	ing.drains.Add(1)
	ing.drainSize.Observe(float64(records))
	if int64(records) > ing.maxDrain.Load() {
		// Only the drainer writes maxDrain; the load/store pair
		// cannot lose an update.
		ing.maxDrain.Store(int64(records))
	}
	var err error
	if len(group) == 1 {
		err = ing.store.AddBatch(group[0].rs)
		ing.ack(group[0], err)
	} else {
		merged := make([]dataset.Record, 0, records)
		for _, b := range group {
			merged = append(merged, b.rs...)
		}
		err = ing.store.AddBatch(merged)
		if err == nil {
			for _, b := range group {
				ing.ack(b, nil)
			}
		} else {
			// Isolation fallback: the merged batch failed as a unit
			// (nothing was applied — AddBatch is atomic), so replay
			// each client batch alone and give every writer exactly
			// its own verdict.
			for _, b := range group {
				ing.ack(b, ing.store.AddBatch(b.rs))
			}
		}
	}
}

// ack releases one batch's budget share and answers its writer.
func (ing *Ingester) ack(b *batch, err error) {
	ing.mu.Lock()
	ing.queuedRecords -= len(b.rs)
	ing.queuedBytes -= b.bytes
	ing.mu.Unlock()
	if err == nil {
		ing.acceptedBatches.Add(1)
		ing.acceptedRecords.Add(uint64(len(b.rs)))
		b.stop()
	} else {
		ing.failedBatches.Add(1)
	}
	b.done <- err
}

// Stats reports the pipeline's counters and queue occupancy.
func (ing *Ingester) Stats() Stats {
	ing.mu.Lock()
	qr, qb := ing.queuedRecords, ing.queuedBytes
	ing.mu.Unlock()
	return Stats{
		QueuedRecords:   qr,
		QueuedBytes:     qb,
		AcceptedBatches: ing.acceptedBatches.Load(),
		AcceptedRecords: ing.acceptedRecords.Load(),
		RejectedBatches: ing.rejectedBatches.Load(),
		RejectedRecords: ing.rejectedRecords.Load(),
		FailedBatches:   ing.failedBatches.Load(),
		Drains:          ing.drains.Load(),
		MaxDrainRecords: int(ing.maxDrain.Load()),
	}
}

// Close stops admission and drains: batches already admitted are
// committed and acknowledged (durably, when the store is WAL-backed)
// before Close returns — mirroring the WAL's own Close semantics, so a
// clean shutdown never turns an admitted write into an error. Close is
// idempotent.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if !ing.closed {
		ing.closed = true
		ing.cond.Broadcast()
	}
	ing.mu.Unlock()
	<-ing.drainerDone
	return nil
}
