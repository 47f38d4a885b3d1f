// Package rollup implements online attribution rollups: time-windowed
// traffic counters keyed by (service, origin AS, DBL category).
//
// The paper's §5 use cases — per-service traffic split by origin AS
// (Figure 4) and traffic from DBL-listed spam domains (Figure 5) — are
// offline joins over FlowDNS output. This package computes them inside the
// pipeline instead: correlated flows are observed into sharded,
// time-windowed counters as they pass the Write stage, so the operator
// reads live per-service/per-AS/per-category traffic series instead of
// re-scanning TSV dumps.
//
// Structure:
//
//   - Rollup is the counter engine: a fixed set of shards, each owning its
//     own window map, so concurrent writers (Write workers, correlation
//     lanes) never contend on a shared structure. The hot-path Observe is
//     allocation-free once a (window, key) pair exists.
//   - Windows are aligned intervals of the flow timestamp. A sealed window
//     is a merge-snapshot: per-shard partial aggregates combined with an
//     associative, commutative, total-preserving Merge — so partials can be
//     combined in any order (or across processes) and always agree.
//   - Sink adapts the engine to the correlator's Sink interface, attributing
//     each correlated flow through a BGP table and a DBL blocklist and
//     exporting sealed windows as TSV or JSONL.
package rollup

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dbl"
)

// DefaultWindow is the rotation interval when none is configured: one
// minute, fine enough to chart the paper's diurnal curves live.
const DefaultWindow = time.Minute

// DefaultShards is the default shard count. It only needs to cover the
// number of concurrent observers (Write workers or correlation lanes);
// 8 leaves headroom without bloating seal-time merges.
const DefaultShards = 8

// Key is the attribution tuple a flow's counters accumulate under.
// Comparable by design: it is used directly as a map key on the hot path,
// so probing never allocates.
type Key struct {
	// Service is the resolved service name; "" for uncorrelated flows.
	Service string
	// ASN is the origin AS of the flow's source address (0 = unroutable or
	// no table configured).
	ASN uint32
	// Category is the DBL classification of Service (Benign when unlisted,
	// uncorrelated, or no blocklist configured).
	Category dbl.Category
}

// Counters are the accumulated totals for one key in one window.
type Counters struct {
	Bytes   uint64
	Packets uint64
	Flows   uint64
}

// add folds other into c.
func (c *Counters) add(o Counters) {
	c.Bytes += o.Bytes
	c.Packets += o.Packets
	c.Flows += o.Flows
}

// Row is one (key, counters) pair of a sealed window.
type Row struct {
	Key
	Counters
}

// Window is a sealed (or snapshotted) rollup interval: every key observed
// in [Start, Start+Dur) with its totals. Rows are sorted by (Service, ASN,
// Category) so two equal windows are structurally identical — the property
// the golden exports and the merge laws rely on.
type Window struct {
	Start time.Time
	Dur   time.Duration
	Rows  []Row
}

// sortRows orders rows canonically.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		return a.Category < b.Category
	})
}

// Merge combines two windows covering the same interval by summing
// counters per key. It is associative and commutative, and preserves
// totals: Merge(a,b).Total() == a.Total()+b.Total(). Windows with
// different spans may still be merged (multi-window totals); the result
// keeps a's Start/Dur when set, b's otherwise.
func Merge(a, b Window) Window {
	m := make(map[Key]Counters, len(a.Rows)+len(b.Rows))
	for _, r := range a.Rows {
		c := m[r.Key]
		c.add(r.Counters)
		m[r.Key] = c
	}
	for _, r := range b.Rows {
		c := m[r.Key]
		c.add(r.Counters)
		m[r.Key] = c
	}
	out := Window{Start: a.Start, Dur: a.Dur}
	if out.Start.IsZero() {
		out.Start, out.Dur = b.Start, b.Dur
	}
	out.Rows = make([]Row, 0, len(m))
	for k, c := range m {
		out.Rows = append(out.Rows, Row{Key: k, Counters: c})
	}
	sortRows(out.Rows)
	return out
}

// MergeAll folds any number of windows into one aggregate view (e.g. a
// day built from sealed hours). Empty input yields a zero Window.
func MergeAll(windows []Window) Window {
	var acc Window
	for _, w := range windows {
		acc = Merge(acc, w)
	}
	return acc
}

// windowAgg is one shard's accumulation for one window interval.
type windowAgg struct {
	start int64 // unix seconds, window-aligned
	m     map[Key]*Counters
}

// shard is one independent slice of the rollup. Padding keeps each shard's
// mutex on its own cache line so concurrent observers on neighboring
// shards do not false-share.
type shard struct {
	mu      sync.Mutex
	windows map[int64]*windowAgg
	_       [48]byte // mutex (8) + map header (8) + pad = 64
}

// observe accumulates one flow under key in the window starting at wstart.
// Callers hold s.mu. The hit path — window and key already exist — does
// not allocate.
func (s *shard) observe(wstart int64, key Key, bytes, packets uint64) {
	w := s.windows[wstart]
	if w == nil {
		w = &windowAgg{start: wstart, m: make(map[Key]*Counters)}
		s.windows[wstart] = w
	}
	c := w.m[key]
	if c == nil {
		c = &Counters{}
		w.m[key] = c
	}
	c.Bytes += bytes
	c.Packets += packets
	c.Flows++
}

// Rollup is the sharded windowed counter engine. Construct with New; all
// methods are safe for concurrent use. Observers should spread across
// shards (one shard per worker or lane) so the hot path never contends.
type Rollup struct {
	winSecs int64
	shards  []shard
	rr      atomic.Uint32
}

// New builds an engine with the given window and shard count. A
// non-positive window takes DefaultWindow; positive windows are rounded
// up to whole seconds (minimum 1 s). shards <= 0 takes DefaultShards.
func New(window time.Duration, shards int) *Rollup {
	if window <= 0 {
		window = DefaultWindow
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	r := &Rollup{
		winSecs: int64((window + time.Second - 1) / time.Second),
		shards:  make([]shard, shards),
	}
	for i := range r.shards {
		r.shards[i].windows = make(map[int64]*windowAgg)
	}
	return r
}

// Window returns the configured rotation interval.
func (r *Rollup) Window() time.Duration { return time.Duration(r.winSecs) * time.Second }

// Shards returns the shard count.
func (r *Rollup) Shards() int { return len(r.shards) }

// windowStart aligns a flow timestamp down to its window boundary
// (floor division, so pre-epoch timestamps still bucket below themselves).
func (r *Rollup) windowStart(ts time.Time) int64 {
	u := ts.Unix()
	m := u % r.winSecs
	if m < 0 {
		m += r.winSecs
	}
	return u - m
}

// shardFor reduces any shard index modulo the shard count.
func (r *Rollup) shardFor(shardIdx int) *shard {
	return &r.shards[uint(shardIdx)%uint(len(r.shards))]
}

// Observe accumulates one flow observation on the given shard (callers
// partition shards by worker or lane; any int is accepted and reduced
// modulo the shard count). The hit path — the flow's window and key have
// been seen on this shard before — is allocation-free. Batch observers
// (the Sink) lock the shard once per batch instead of going through here.
func (r *Rollup) Observe(shardIdx int, ts time.Time, key Key, bytes, packets uint64) {
	s := r.shardFor(shardIdx)
	wstart := r.windowStart(ts)
	s.mu.Lock()
	s.observe(wstart, key, bytes, packets)
	s.mu.Unlock()
}

// NextShard hands out shard indexes round-robin — how batch observers
// (the Sink's Write workers) pick a shard per batch so concurrent batches
// land on different shards.
func (r *Rollup) NextShard() int {
	return int(r.rr.Add(1)-1) % len(r.shards)
}

// SealBefore removes every window that ends at or before cutoff from all
// shards and returns the removed windows merged per interval, sorted by
// start time. Sealing is the rotation step: the returned windows are
// immutable snapshots whose per-shard partials have been combined with
// Merge semantics.
func (r *Rollup) SealBefore(cutoff time.Time) []Window {
	limit := cutoff.Unix()
	var sealed []*windowAgg
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for start, w := range s.windows {
			if start+r.winSecs <= limit {
				sealed = append(sealed, w)
				delete(s.windows, start)
			}
		}
		s.mu.Unlock()
	}
	return r.combine(sealed)
}

// SealAll removes and returns every window regardless of age — the drain
// path, so a closing pipeline never loses a partial window.
func (r *Rollup) SealAll() []Window {
	var sealed []*windowAgg
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for start, w := range s.windows {
			sealed = append(sealed, w)
			delete(s.windows, start)
		}
		s.mu.Unlock()
	}
	return r.combine(sealed)
}

// Snapshot returns the current (unsealed) windows merged per interval
// without removing anything — the live-inspection view.
func (r *Rollup) Snapshot() []Window {
	var copies []*windowAgg
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, w := range s.windows {
			cp := &windowAgg{start: w.start, m: make(map[Key]*Counters, len(w.m))}
			for k, c := range w.m {
				cc := *c
				cp.m[k] = &cc
			}
			copies = append(copies, cp)
		}
		s.mu.Unlock()
	}
	return r.combine(copies)
}

// combine groups per-shard partials by window start and merges each group
// into one canonical Window.
func (r *Rollup) combine(aggs []*windowAgg) []Window {
	if len(aggs) == 0 {
		return nil
	}
	byStart := make(map[int64]map[Key]Counters)
	for _, a := range aggs {
		m := byStart[a.start]
		if m == nil {
			m = make(map[Key]Counters, len(a.m))
			byStart[a.start] = m
		}
		for k, c := range a.m {
			acc := m[k]
			acc.add(*c)
			m[k] = acc
		}
	}
	out := make([]Window, 0, len(byStart))
	dur := time.Duration(r.winSecs) * time.Second
	for start, m := range byStart {
		w := Window{Start: time.Unix(start, 0).UTC(), Dur: dur, Rows: make([]Row, 0, len(m))}
		for k, c := range m {
			w.Rows = append(w.Rows, Row{Key: k, Counters: c})
		}
		sortRows(w.Rows)
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
