// Package queue provides bounded multi-producer/multi-consumer job queues
// with drop accounting.
//
// FlowDNS places a queue between every pair of worker stages (stream reader →
// FillUp, stream reader → LookUp, LookUp → Write). Each upstream source "has
// an internal buffer to be used in case the reading speed is less than their
// actual rate. If that buffer overflows, the streams start to drop data."
// (paper §2). The evaluation's headline loss metric (≤0.01 % for Main, >90 %
// for the exact-TTL anti-benchmark) is exactly the drop rate these queues
// record, so the implementation keeps precise atomic counters.
package queue

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of a queue's counters. Every record
// offered to the queue lands in exactly one of the first three buckets, so
// Offered == Enqueued + Dropped + Sampled always holds — loss is never
// silent, whether it was accidental (Dropped) or deliberate (Sampled).
type Stats struct {
	Enqueued uint64 // records accepted into the buffer
	Dropped  uint64 // records rejected because the buffer was full
	Sampled  uint64 // records deliberately shed by the adaptive sampler
	Dequeued uint64 // records handed to consumers
}

// Offered returns the total number of records offered to the queue.
func (s Stats) Offered() uint64 { return s.Enqueued + s.Dropped + s.Sampled }

// Lost returns the records that did not enter the buffer, accidental plus
// deliberate.
func (s Stats) Lost() uint64 { return s.Dropped + s.Sampled }

// SamplerConfig configures adaptive overload shedding on a queue: instead
// of running the buffer into the wall and dropping whatever arrives after
// (silent, bursty, biased toward whoever offers last), the queue starts
// shedding a controlled fraction of offered records once the buffer passes
// LowWater, ramping linearly to MaxShed at HighWater. Shed records are
// counted in Stats.Sampled, so the degradation is deliberate and fully
// accounted — the paper's "buffer usage stable to avoid any loss" goal,
// inverted: when loss is unavoidable, make it measured and smooth.
type SamplerConfig struct {
	// LowWater is the buffer fill in (0,1) below which nothing is shed.
	LowWater float64
	// HighWater is the fill at which the shed rate reaches MaxShed; between
	// the watermarks the rate ramps linearly.
	HighWater float64
	// MaxShed is the shed-fraction ceiling in (0,1]. 0 disables sampling —
	// the zero SamplerConfig is a no-op.
	MaxShed float64
}

// Enabled reports whether the config sheds anything at all.
func (c SamplerConfig) Enabled() bool { return c.MaxShed > 0 }

// shedScale is the fixed-point denominator of the shed-credit accumulator:
// rates are carried as integer credits per record so the long-run shed
// proportion is exact and deterministic without any per-record floating
// point or randomness.
const shedScale = 1 << 20

// rate returns the shed fraction for a given buffer fill.
func (c SamplerConfig) rate(fill float64) float64 {
	if !c.Enabled() || fill <= c.LowWater {
		return 0
	}
	if fill >= c.HighWater || c.HighWater <= c.LowWater {
		return c.MaxShed
	}
	return c.MaxShed * (fill - c.LowWater) / (c.HighWater - c.LowWater)
}

// Queue is a bounded FIFO of values of type T. Producers never block: when
// the buffer is full, OfferBatch drops the records that do not fit and
// increments the drop counter, mirroring the stream-buffer semantics of the
// paper's data feeds. Consumers block on TakeBatch until a record arrives
// or the queue is closed.
type Queue[T any] struct {
	ch       chan T
	enqueued atomic.Uint64
	dropped  atomic.Uint64
	sampled  atomic.Uint64
	dequeued atomic.Uint64

	// sampler is the adaptive shed config; the zero value disables it. Set
	// once via SetSampler before producers start — it is read without
	// synchronization on the offer path.
	sampler SamplerConfig
	// shedAcc accumulates fixed-point shed credit (shedScale per record);
	// each crossing of a shedScale boundary sheds one record, making the
	// long-run shed proportion exact under any interleaving of producers.
	shedAcc atomic.Uint64

	// mu coordinates producers with Close: a send on a closed channel
	// panics even inside a select, so Close takes the write side while
	// producers hold the read side.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
}

// New returns a queue with the given buffer capacity (minimum 1).
func New[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{ch: make(chan T, capacity)}
}

// SetSampler installs an adaptive sampler on the queue. Call before any
// producer offers; the config is read lock-free on the offer path.
func (q *Queue[T]) SetSampler(c SamplerConfig) { q.sampler = c }

// planShed decides how many of the next n offered records the sampler
// sheds, based on the current buffer fill. The fixed-point credit
// accumulator makes the decision deterministic: over any run the shed
// count is exactly floor(sum of rate·n) regardless of batch sizes or
// producer interleaving. Returns 0 when sampling is disabled (one branch
// on the hot path).
func (q *Queue[T]) planShed(n int) int {
	if !q.sampler.Enabled() {
		return 0
	}
	rate := q.sampler.rate(float64(len(q.ch)) / float64(cap(q.ch)))
	if rate <= 0 {
		return 0
	}
	credit := uint64(rate * shedScale)
	now := q.shedAcc.Add(uint64(n) * credit)
	return int(now/shedScale - (now-uint64(n)*credit)/shedScale)
}

// OfferBatch attempts a non-blocking enqueue of every record in vs and
// returns the number the queue took responsibility for. Records that do
// not fit are dropped and counted as loss; the counter updates are
// amortized to a few atomic adds per call. Offering on a closed queue
// counts the whole batch as dropped.
//
// With a sampler installed, the shed quota for the batch is taken off the
// front (batch order carries no meaning within one datagram) and those
// records count toward the return value as Sampled, not Dropped — so a
// producer's "offered − accepted" arithmetic keeps measuring accidental
// overflow only.
func (q *Queue[T]) OfferBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		q.dropped.Add(uint64(len(vs)))
		return 0
	}
	shed := q.planShed(len(vs))
	if shed > 0 {
		q.sampled.Add(uint64(shed))
		vs = vs[shed:]
	}
	accepted := 0
	for i := range vs {
		select {
		case q.ch <- vs[i]:
			accepted++
		default:
			// Buffer full right now; a consumer may free a slot before the
			// next record, so keep trying the remaining ones.
		}
	}
	if accepted > 0 {
		q.enqueued.Add(uint64(accepted))
	}
	if d := len(vs) - accepted; d > 0 {
		q.dropped.Add(uint64(d))
	}
	return accepted + shed
}

// PutBatch enqueues every record in vs, blocking for space as needed, and
// returns the number the queue took responsibility for (with a sampler
// installed that includes records shed into Stats.Sampled, same as
// OfferBatch). It is the backpressure form of OfferBatch:
// inter-stage handoffs use it so that records already accepted into the
// pipeline are never dropped between stages — loss is accounted only at the
// intake queues, as with the paper's stream buffers. It holds the queue
// open against Close for its duration, so it must not be called after
// Close (the whole batch then counts as dropped) and requires consumers to
// be draining the queue until Close.
func (q *Queue[T]) PutBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		q.dropped.Add(uint64(len(vs)))
		return 0
	}
	shed := q.planShed(len(vs))
	if shed > 0 {
		q.sampled.Add(uint64(shed))
		vs = vs[shed:]
	}
	for i := range vs {
		q.ch <- vs[i]
	}
	if len(vs) > 0 {
		q.enqueued.Add(uint64(len(vs)))
	}
	return len(vs) + shed
}

// TakeBatch appends up to max records to buf and returns the extended
// slice. It blocks until at least one record is available (or the queue is
// closed and drained — the only case reporting ok == false). Having taken
// one record it keeps appending records that are immediately available;
// when fewer than max arrived and wait > 0, it lingers up to wait for
// stragglers so consumers see larger batches under moderate load at a
// bounded latency cost. wait <= 0 never waits beyond the first record.
func (q *Queue[T]) TakeBatch(buf []T, max int, wait time.Duration) ([]T, bool) {
	if max < 1 {
		max = 1
	}
	v, ok := <-q.ch
	if !ok {
		return buf, false
	}
	buf = append(buf, v)
	taken := 1
	if wait <= 0 {
		for taken < max {
			select {
			case v, ok := <-q.ch:
				if !ok {
					q.dequeued.Add(uint64(taken))
					return buf, true
				}
				buf = append(buf, v)
				taken++
			default:
				q.dequeued.Add(uint64(taken))
				return buf, true
			}
		}
		q.dequeued.Add(uint64(taken))
		return buf, true
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for taken < max {
		select {
		case v, ok := <-q.ch:
			if !ok {
				q.dequeued.Add(uint64(taken))
				return buf, true
			}
			buf = append(buf, v)
			taken++
		case <-timer.C:
			q.dequeued.Add(uint64(taken))
			return buf, true
		}
	}
	q.dequeued.Add(uint64(taken))
	return buf, true
}

// Close marks the queue as complete. Consumers drain remaining records and
// then observe ok == false. Close is idempotent.
func (q *Queue[T]) Close() {
	q.closeOnce.Do(func() {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		close(q.ch)
	})
}

// Len returns the number of buffered records.
func (q *Queue[T]) Len() int { return len(q.ch) }

// Stats returns a snapshot of the counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{
		Enqueued: q.enqueued.Load(),
		Dropped:  q.dropped.Load(),
		Sampled:  q.sampled.Load(),
		Dequeued: q.dequeued.Load(),
	}
}
