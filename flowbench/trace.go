package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netflow"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/winstore"
)

// perLayer lists every per-layer metric of a traced run with its unit.
// A layer the workload does not exercise reports 0.
var perLayer = [][2]string{
	{"gen.late_p99_ms", "ms"}, {"gen.dns_unencodable", "count"}, {"gen.datagrams_sent", "count"},
	{"stream.kernel_rcvbuf_drops", "count"}, {"stream.flows_per_offer", "count"},
	{"stream.dns_records_per_offer", "count"}, {"stream.decode_errors", "count"},
	{"netflow.decode_ns_per_flow", "ns"}, {"dnswire.decode_ns_per_msg", "ns"},
	{"core.offer_flow_ns", "ns"}, {"core.offer_dns_ns", "ns"},
	{"core.backlog_max.fill", "count"}, {"core.backlog_max.look", "count"}, {"core.backlog_max.write", "count"},
	{"core.dropped.fill", "count"}, {"core.dropped.look", "count"}, {"core.dropped.write", "count"},
	{"core.sampled.fill", "count"}, {"core.sampled.look", "count"}, {"core.sampled.write", "count"},
	{"core.fill_ns_per_record", "ns"}, {"core.lookup_ns_per_flow", "ns"},
	{"core.hit_active_frac", "1"}, {"core.hit_inactive_frac", "1"}, {"core.hit_long_frac", "1"},
	{"core.memoized_frac", "1"}, {"core.chain_hops_mean", "count"}, {"core.rotations", "count"},
	{"core.store_entries", "count"},
	{"core.queue_wait_ms_p50", "ms"}, {"core.queue_wait_ms_p99", "ms"}, {"core.write_batch_mean", "count"},
	{"core.restore_ms", "ms"}, {"snapshot.bytes", "B"},
	{"rollup.write_ns_per_flow", "ns"}, {"rollup.windows_sealed", "count"}, {"rollup.rows_per_window", "count"},
	{"winstore.add_ms_p50", "ms"}, {"winstore.add_ms_p99", "ms"},
	{"winstore.query_ms_p50", "ms"}, {"winstore.query_ms_p99", "ms"},
	{"winstore.rows_per_query", "count"}, {"winstore.open_s", "s"},
	{"queryapi.cache_hit_frac", "1"}, {"queryapi.hit_ms_p50", "ms"},
	{"queryapi.miss_ms_p50", "ms"}, {"queryapi.miss_ms_p99", "ms"},
	{"queryapi.self_ms_p50", "ms"}, {"queryapi.body_bytes_mean", "B"},
	{"recon.sync_ns_per_flow", "ns"}, {"core.pipeline_overhead_ns_per_flow", "ns"},
	{"trace.overhead_frac", "1"},
}

// setLayers records the per-layer metrics; names the run did not measure
// read 0 and are listed in the report.
func (b *bench) setLayers(m map[string]float64) {
	var missing []string
	for _, l := range perLayer {
		v, ok := m[l[0]]
		if !ok {
			missing = append(missing, l[0])
		}
		b.set(l[0], l[1], v)
	}
	if len(missing) > 0 {
		b.note("not exercised by %s (reported as 0): %v", b.workload, missing)
	}
}

// maxSpans bounds the spans kept in memory; later spans still count in
// the per-name totals.
const maxSpans = 200_000

// span is one timed call into a layer. Spans of one batch share its id.
type span struct {
	name       uint16
	parent     int32 // index of the parent span, -1 for a root
	batch      uint64
	start, end int64 // ns since the tracer's origin
}

// tracer records spans in memory and writes them out at exit.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	names  []string
	ids    map[string]uint16
	spans  []span
	total  map[uint16]*spanTotal
	batch  atomic.Uint64
}

type spanTotal struct {
	count, ns, items int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ids: make(map[string]uint16), total: make(map[uint16]*spanTotal)}
}

// open is an unfinished span; end records it.
type open struct {
	t     *tracer
	idx   int32 // index in spans, -1 beyond maxSpans
	name  uint16
	batch uint64
	start int64
}

// begin opens a span; parent -1 opens a root with a fresh batch id.
func (t *tracer) begin(name string, parent int32, batch uint64) open {
	if parent < 0 {
		batch = t.batch.Add(1)
	}
	t.mu.Lock()
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: id, parent: parent, batch: batch})
	}
	t.mu.Unlock()
	return open{t: t, idx: idx, name: id, batch: batch, start: int64(time.Since(t.origin))}
}

// end closes the span, counting items of work in it, and returns its
// duration.
func (o open) end(items int) time.Duration {
	now := int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	if o.idx >= 0 {
		o.t.spans[o.idx].start, o.t.spans[o.idx].end = o.start, now
	}
	tot := o.t.total[o.name]
	if tot == nil {
		tot = new(spanTotal)
		o.t.total[o.name] = tot
	}
	tot.count++
	tot.ns += now - o.start
	tot.items += int64(items)
	o.t.mu.Unlock()
	return time.Duration(now - o.start)
}

func (t *tracer) totals(name string) spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok && t.total[id] != nil {
		return *t.total[id]
	}
	return spanTotal{}
}

// report notes every span name's count, mean duration and mean self time
// (duration minus the part its recorded children cover), and writes the
// recorded spans as JSON lines to path.
func (t *tracer) report(b *bench, path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type agg struct{ n, dur, self int64 }
	by := make(map[uint16]*agg)
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		a := by[s.name]
		if a == nil {
			a = new(agg)
			by[s.name] = a
		}
		a.n++
		a.dur += s.end - s.start
		a.self += s.end - s.start - child[i]
	}
	ids := make([]int, 0, len(by))
	for id := range by {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := by[uint16(id)]
		tot := t.total[uint16(id)]
		b.note("span %-22s %8d calls (%d recorded)  mean %9.1f µs  self %9.1f µs  items/call %.1f",
			t.names[id], tot.count, a.n, float64(a.dur)/float64(a.n)/1e3, float64(a.self)/float64(a.n)/1e3,
			float64(tot.items)/float64(tot.count))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		enc.Encode(struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			Batch  uint64 `json:"batch"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, t.names[s.name], s.parent, s.batch, s.start, s.end})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	b.note("spans written to %s", path)
	return f.Close()
}

// spanKey carries the enclosing span through a sink's context.
type spanKey struct{}

// tw is the traced run's wrapper around the layers' public calls.
type tw struct {
	t *tracer

	mu      sync.Mutex
	waitMs  []float64 // sink entry minus EnqueuedAt, per flow
	addMs   []float64 // per Store.Add
	windows int64
	rows    int64
	backlog [3]uint64 // fill, look, write
	addErr  error     // first Store.Add failure
}

func newTW() *tw { return &tw{t: newTracer()} }

// tracedSink wraps one sink in a span named after the layer. The root
// sink (the one the write workers call) also records each flow's queue
// wait and the batch size.
type tracedSink struct {
	w     *tw
	name  string
	inner core.Sink
}

func (w *tw) sink(name string, s core.Sink) core.Sink { return &tracedSink{w: w, name: name, inner: s} }

func (s *tracedSink) WriteBatch(ctx context.Context, batch []core.CorrelatedFlow) error {
	parent, batchID := int32(-1), uint64(0)
	if p, ok := ctx.Value(spanKey{}).(open); ok {
		parent, batchID = p.idx, p.batch
	}
	if parent < 0 {
		now := time.Now()
		s.w.mu.Lock()
		for i := range batch {
			if !batch[i].EnqueuedAt.IsZero() {
				s.w.waitMs = append(s.w.waitMs, ms(now.Sub(batch[i].EnqueuedAt)))
			}
		}
		s.w.mu.Unlock()
	}
	o := s.w.t.begin(s.name, parent, batchID)
	err := s.inner.WriteBatch(context.WithValue(ctx, spanKey{}, o), batch)
	o.end(len(batch))
	return err
}

func (s *tracedSink) Flush() error { return s.inner.Flush() }
func (s *tracedSink) Close() error { return s.inner.Close() }

// tracedIngest times the offers a source (or the replay loop) makes.
type tracedIngest struct {
	w  *tw
	in stream.Ingest
}

func (w *tw) ingest(in stream.Ingest) stream.Ingest { return &tracedIngest{w: w, in: in} }

func (ti *tracedIngest) OfferDNS(rec stream.DNSRecord) bool {
	return ti.OfferDNSBatch([]stream.DNSRecord{rec}) == 1
}
func (ti *tracedIngest) OfferFlow(fr netflow.FlowRecord) bool {
	return ti.OfferFlowBatch([]netflow.FlowRecord{fr}) == 1
}

func (ti *tracedIngest) OfferDNSBatch(recs []stream.DNSRecord) int {
	o := ti.w.t.begin("core.offer_dns", -1, 0)
	n := ti.in.OfferDNSBatch(recs)
	o.end(len(recs))
	return n
}

func (ti *tracedIngest) OfferFlowBatch(frs []netflow.FlowRecord) int {
	o := ti.w.t.begin("core.offer_flows", -1, 0)
	n := ti.in.OfferFlowBatch(frs)
	o.end(len(frs))
	return n
}

// source wraps a stream source so its offers go through the traced
// façade.
func (w *tw) source(src stream.Source) stream.Source {
	return stream.SourceFunc(func(ctx context.Context, in stream.Ingest) error {
		return src.Run(ctx, w.ingest(in))
	})
}

// seal wraps the rollup sink's OnSeal target, the window store's Add.
func (w *tw) seal(store *winstore.Store) func([]rollup.Window) {
	return func(ws []rollup.Window) {
		o := w.t.begin("rollup.seal", -1, 0)
		rows := 0
		for i := range ws {
			rows += len(ws[i].Rows)
		}
		a := w.t.begin("winstore.add", o.idx, o.batch)
		err := store.Add(ws)
		d := a.end(rows)
		o.end(len(ws))
		w.mu.Lock()
		w.addMs = append(w.addMs, ms(d))
		w.windows += int64(len(ws))
		w.rows += int64(rows)
		if err != nil && w.addErr == nil {
			w.addErr = err
		}
		w.mu.Unlock()
	}
}

// watch samples the stage backlogs (Enqueued − Dequeued) every
// millisecond until the returned stop is called.
func (w *tw) watch(c *core.Correlator) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			st := c.Stats()
			w.mu.Lock()
			for i, q := range [3]struct{ e, d uint64 }{
				{st.FillQueue.Enqueued, st.FillQueue.Dequeued},
				{st.LookQueue.Enqueued, st.LookQueue.Dequeued},
				{st.WriteQueue.Enqueued, st.WriteQueue.Dequeued},
			} {
				if q.e > q.d {
					w.backlog[i] = max(w.backlog[i], q.e-q.d)
				}
			}
			w.mu.Unlock()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// tracedQueries issues requests one at a time, so each is classified as a
// cache hit or miss from the CacheStats delta around it, and times
// Store.Query on each request's range.
func (w *tw) tracedQueries(srv *queryapi.Server, store *winstore.Store, base string, mix *qmix, seed int64, stop time.Time, limit int) ([]qresult, map[string]float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	r := rand.New(rand.NewSource(seed))
	var (
		res                   []qresult
		hitMs, missMs, selfMs []float64
		storeMs               []float64
		rows, bodyBytes, hits int64
		buf                   []byte
	)
	for len(res) < limit && time.Now().Before(stop) {
		q, ok := mix.next(r)
		cs0 := srv.CacheStats()
		o := w.t.begin("queryapi.request", -1, 0)
		qr, b, err := doQuery(c, base, q, buf)
		buf = b
		if err != nil {
			return nil, nil, err
		}
		o.end(1)
		hit := srv.CacheStats().Hits > cs0.Hits
		qr.checkable = ok
		res = append(res, qr)
		bodyBytes += int64(qr.size)
		so := w.t.begin("winstore.query", -1, 0)
		ws := store.Query(time.Unix(q.from, 0), time.Unix(q.to, 0))
		n := 0
		for i := range ws {
			n += len(ws[i].Rows)
		}
		sd := so.end(n)
		rows += int64(n)
		storeMs = append(storeMs, ms(sd))
		if hit {
			hits++
			hitMs = append(hitMs, ms(qr.lat))
		} else {
			missMs = append(missMs, ms(qr.lat))
			selfMs = append(selfMs, ms(qr.lat-sd))
		}
	}
	m := map[string]float64{}
	if len(res) == 0 {
		return res, m, nil
	}
	sort.Float64s(hitMs)
	sort.Float64s(missMs)
	sort.Float64s(selfMs)
	sort.Float64s(storeMs)
	m["queryapi.cache_hit_frac"] = float64(hits) / float64(len(res))
	m["queryapi.hit_ms_p50"] = quantile(hitMs, 0.5)
	m["queryapi.miss_ms_p50"] = quantile(missMs, 0.5)
	m["queryapi.miss_ms_p99"] = quantile(missMs, 0.99)
	m["queryapi.self_ms_p50"] = quantile(selfMs, 0.5)
	m["queryapi.body_bytes_mean"] = float64(bodyBytes) / float64(len(res))
	m["winstore.query_ms_p50"] = quantile(storeMs, 0.5)
	m["winstore.query_ms_p99"] = quantile(storeMs, 0.99)
	m["winstore.rows_per_query"] = float64(rows) / float64(len(res))
	return res, m, nil
}

// coreLayers derives the correlator's per-layer metrics from its Stats and
// the wrapper's recordings.
func (w *tw) coreLayers(m map[string]float64, st core.Stats) {
	flows := float64(max(st.Flows, 1))
	m["core.hit_active_frac"] = float64(st.HitActive) / flows
	m["core.hit_inactive_frac"] = float64(st.HitInactive) / flows
	m["core.hit_long_frac"] = float64(st.HitLong) / flows
	m["core.memoized_frac"] = float64(st.Memoized) / flows
	var hops, n uint64
	for i, c := range st.ChainHist {
		hops += uint64(i) * c
		n += c
	}
	m["core.chain_hops_mean"] = float64(hops) / float64(max(n, 1))
	m["core.rotations"] = float64(st.IPNameRotations + st.NameCnameRotations)
	m["core.store_entries"] = float64(st.IPNameEntries + st.NameCnameEntries)
	m["core.dropped.fill"], m["core.dropped.look"], m["core.dropped.write"] =
		float64(st.FillQueue.Dropped), float64(st.LookQueue.Dropped), float64(st.WriteQueue.Dropped)
	m["core.sampled.fill"], m["core.sampled.look"], m["core.sampled.write"] =
		float64(st.FillQueue.Sampled), float64(st.LookQueue.Sampled), float64(st.WriteQueue.Sampled)

	w.mu.Lock()
	defer w.mu.Unlock()
	m["core.backlog_max.fill"], m["core.backlog_max.look"], m["core.backlog_max.write"] =
		float64(w.backlog[0]), float64(w.backlog[1]), float64(w.backlog[2])
	sort.Float64s(w.waitMs)
	m["core.queue_wait_ms_p50"] = quantile(w.waitMs, 0.5)
	m["core.queue_wait_ms_p99"] = quantile(w.waitMs, 0.99)
	perCall := func(name string) (float64, float64) {
		t := w.t.totals(name)
		return float64(t.ns) / float64(max(t.count, 1)), float64(t.items) / float64(max(t.count, 1))
	}
	_, m["core.write_batch_mean"] = perCall("core.write_batch")
	m["core.offer_flow_ns"], m["stream.flows_per_offer"] = perCall("core.offer_flows")
	m["core.offer_dns_ns"], m["stream.dns_records_per_offer"] = perCall("core.offer_dns")
	if rt := w.t.totals("rollup.write_batch"); rt.items > 0 {
		m["rollup.write_ns_per_flow"] = float64(rt.ns) / float64(rt.items)
	}
	if w.windows > 0 {
		m["rollup.windows_sealed"] = float64(w.windows)
		m["rollup.rows_per_window"] = float64(w.rows) / float64(w.windows)
		sort.Float64s(w.addMs)
		m["winstore.add_ms_p50"] = quantile(w.addMs, 0.5)
		m["winstore.add_ms_p99"] = quantile(w.addMs, 0.99)
	}
}

// restoreLayers times core.New restoring a checkpoint file.
func restoreLayers(m map[string]float64, path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.SnapshotPath = path
	t0 := time.Now()
	c := core.New(cfg)
	m["core.restore_ms"] = ms(time.Since(t0))
	m["snapshot.bytes"] = float64(fi.Size())
	if _, err := c.RestoreResult(); err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	return nil
}

// traceFile is where a traced run writes its spans: beside the run
// directories, one file per workload and seed.
func (b *bench) traceFile() string {
	return filepath.Join(filepath.Dir(b.dir), "traces", fmt.Sprintf("%s-s%d.spans.jsonl", b.workload, b.seed))
}
