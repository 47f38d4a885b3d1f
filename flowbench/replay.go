package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netflow"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/winstore"
)

// replay-saturate input: about two simulated hours, so the A (3600 s) and
// C (7200 s) clear-ups both happen and every store tier is hit. A step
// never exceeds one lane's queue share (65536 / 10 lanes), so the closed
// loop cannot drop.
const (
	replaySteps   = 180
	replayStepLen = 40 * time.Second
	replayFlows   = 4000 // flows per step
	replayEvents  = replayFlows / dnsPerFlow
	replayWindow  = time.Minute // rollup window, the daemon default
)

var replayStart = time.Date(2024, 3, 4, 0, 0, 0, 0, time.UTC)

// replaySetup is the pre-generated closed-loop input and its reference.
type replaySetup struct {
	in   *inputs
	inp  *replayInput
	ref  syncResult
	long map[string]string // see longChains
}

func setupReplay(b *bench) (*replaySetup, error) {
	in, err := newInputs(b.seed)
	if err != nil {
		return nil, err
	}
	s := &replaySetup{in: in, inp: in.buildReplay(replayStart, replaySteps, replayStepLen, replayEvents, replayFlows), long: longChains(in)}
	s.ref = s.syncPass()
	return s, nil
}

// syncResult is one synchronous pass over the replay input: the reference
// windows, and the time each layer took, on one goroutine.
type syncResult struct {
	windows                             []rollup.Window
	flows, dnsRecs                      int64
	inputNs, fillNs, lookupNs, rollupNs int64
	corr                                *core.Correlator
}

// syncPass runs input → IngestDNSBatch → CorrelateBatch →
// rollup.Sink.WriteBatch on one goroutine, step by step.
func (s *replaySetup) syncPass() syncResult {
	var r syncResult
	sink := rollup.NewSink(rollup.New(replayWindow, 0),
		rollup.WithTable(s.in.table), rollup.WithBlocklist(s.in.list),
		rollup.WithOnSeal(func(ws []rollup.Window) { r.windows = append(r.windows, ws...) }))
	r.corr = core.New(core.DefaultConfig())
	var (
		dns   []stream.DNSRecord
		flows []netflow.FlowRecord
		out   []core.CorrelatedFlow
	)
	ctx := context.Background()
	for st := 0; st < s.inp.steps(); st++ {
		t0 := time.Now()
		dns = s.inp.stepDNSRecords(dns, st)
		flows = s.inp.stepFlowRecords(flows, st)
		t1 := time.Now()
		r.corr.IngestDNSBatch(dns)
		t2 := time.Now()
		out = r.corr.CorrelateBatch(out[:0], flows)
		t3 := time.Now()
		_ = sink.WriteBatch(ctx, out) // a rollup sink never fails a write
		t4 := time.Now()
		r.inputNs += int64(t1.Sub(t0))
		r.fillNs += int64(t2.Sub(t1))
		r.lookupNs += int64(t3.Sub(t2))
		r.rollupNs += int64(t4.Sub(t3))
		r.flows += int64(len(flows))
		r.dnsRecs += int64(len(dns))
	}
	_ = sink.Close() // seals into OnSeal; there is no export to fail
	return r
}

// passResult is one closed-loop pass through the asynchronous pipeline.
type passResult struct {
	windows   []rollup.Window
	setup     time.Duration // core.New
	elapsed   time.Duration // first offer to Run returned
	cpu       time.Duration // process CPU over elapsed
	offered   int64
	delivered int64
	latMs     []float64 // sink entry minus offer, one flow in latSample
	divBytes  uint64    // see divergence
	stats     core.Stats
	err       error
}

// latSample: one flow in latSample has its latency recorded.
const latSample = 16

// countingSink counts delivered flows and samples their offer-to-sink
// latency before handing the batch on.
type countingSink struct {
	core.Sink
	mu        sync.Mutex
	delivered int64
	latMs     []float64
}

func (s *countingSink) WriteBatch(ctx context.Context, batch []core.CorrelatedFlow) error {
	now := time.Now()
	s.mu.Lock()
	for i := 0; i < len(batch); i++ {
		if (s.delivered+int64(i))%latSample == 0 {
			s.latMs = append(s.latMs, ms(now.Sub(batch[i].EnqueuedAt)))
		}
	}
	s.delivered += int64(len(batch))
	s.mu.Unlock()
	return s.Sink.WriteBatch(ctx, batch)
}

// pass runs the whole replay input once through a fresh correlator. Each
// step is fenced on the public Stats counters: its DNS is filled before its
// flows are offered, and its flows are looked up before the next step's
// DNS is offered. w, when set, wraps the sink and the ingest façade (the
// traced run).
func (s *replaySetup) pass(w *tw) passResult {
	var r passResult
	rs := rollup.NewSink(rollup.New(replayWindow, 0),
		rollup.WithTable(s.in.table), rollup.WithBlocklist(s.in.list),
		rollup.WithOnSeal(func(ws []rollup.Window) { r.windows = append(r.windows, ws...) }))
	var rsink, sink core.Sink = rs, nil
	if w != nil {
		rsink = w.sink("rollup.write_batch", rs)
	}
	cs := &countingSink{Sink: rsink}
	sink = cs
	if w != nil {
		sink = w.sink("core.write_batch", cs)
	}
	// core.New allocates every stage queue up front; collect the previous
	// pass first so it always reuses freed heap rather than sometimes
	// faulting in fresh pages.
	runtime.GC()
	t0 := time.Now()
	c := core.New(core.DefaultConfig(), core.WithSink(sink))
	r.setup = time.Since(t0)
	var in stream.Ingest = c
	if w != nil {
		in = w.ingest(c)
		defer w.watch(c)()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	var (
		dns               []stream.DNSRecord
		flows             []netflow.FlowRecord
		dnsDone, flowDone uint64
	)
	start, cpu0 := time.Now(), processCPU()
	for st := 0; st < s.inp.steps(); st++ {
		dns = s.inp.stepDNSRecords(dns, st)
		flows = s.inp.stepFlowRecords(flows, st)
		if n := in.OfferDNSBatch(dns); n != len(dns) && r.err == nil {
			r.err = fmt.Errorf("step %d: fill queue took %d of %d DNS records", st, n, len(dns))
		}
		dnsDone += uint64(len(dns))
		fence(c, func(x *core.Stats) bool { return x.DNSRecords+x.DNSInvalid >= dnsDone })
		if n := in.OfferFlowBatch(flows); n != len(flows) && r.err == nil {
			r.err = fmt.Errorf("step %d: lookup queues took %d of %d flows", st, n, len(flows))
		}
		flowDone += uint64(len(flows))
		r.offered += int64(len(flows))
		fence(c, func(x *core.Stats) bool { return x.Flows >= flowDone })
	}
	cancel()
	if err := <-done; err != nil && r.err == nil {
		r.err = err
	}
	r.elapsed, r.cpu = time.Since(start), processCPU()-cpu0
	r.stats = c.Stats()
	r.delivered, r.latMs = cs.delivered, cs.latMs
	return r
}

// fence polls Stats until cond holds. It yields rather than sleeps for the
// first fenceSpin: a step takes a few milliseconds, and a timer wake-up on
// the virtual machine this was built on took anywhere from 50 µs to 1 ms,
// which made throughput swing with the host's timer latency.
func fence(c *core.Correlator, cond func(*core.Stats) bool) {
	start := time.Now()
	for {
		st := c.Stats()
		if cond(&st) {
			return
		}
		if time.Since(start) < fenceSpin {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

const fenceSpin = 5 * time.Millisecond

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkPass compares a pass's sealed windows with the synchronous
// reference. Every (window, service, AS, category) row must be identical,
// with one exception the program forces: for a service whose CNAME chain is
// longer than the walk limit, the name a flow is attributed to depends on
// whether another lane memoized the truncated walk first, so those rows are
// compared summed over the chain's names. Their bytes, packets and flows
// must still match exactly, per window and AS.
func (b *bench) checkPass(i int, r passResult, ref []rollup.Window, long map[string]string) {
	if r.err != nil {
		b.fail("pass %d: %v", i, r.err)
	}
	if r.delivered != r.offered {
		b.fail("pass %d: %d of %d flows reached the sink", i, r.delivered, r.offered)
	}
	got, want := windowMap(r.windows, long), windowMap(ref, long)
	if reflect.DeepEqual(got, want) {
		return
	}
	for k, c := range want {
		if got[k] != c {
			b.fail("pass %d: window %d service %q AS %d category %s has %+v in the pipeline, %+v in the synchronous reference",
				i, k.start, k.key.Service, k.key.ASN, k.key.Category, got[k], c)
			return
		}
	}
	b.fail("pass %d: the pipeline sealed rows the synchronous reference does not have", i)
}

// longChains maps every name of a service whose CNAME chain exceeds the
// correlator's walk limit to that service's name.
func longChains(in *inputs) map[string]string {
	m := make(map[string]string)
	for _, svc := range in.u.Services {
		if len(svc.Chain) > core.DefaultCNAMEChainLimit {
			m[svc.Name] = svc.Name
			for _, n := range svc.Chain {
				m[n] = svc.Name
			}
		}
	}
	return m
}

type rowKey struct {
	start int64
	key   rollup.Key
}

// windowMap flattens windows into (start, key) → counters, merging
// partials of the same interval and the names of each long chain.
func windowMap(ws []rollup.Window, long map[string]string) map[rowKey]rollup.Counters {
	m := make(map[rowKey]rollup.Counters)
	for _, w := range ws {
		for _, r := range w.Rows {
			k := rowKey{w.Start.Unix(), r.Key}
			if svc, ok := long[r.Service]; ok {
				k.key.Service, k.key.Category = svc+" (any name of its CNAME chain)", 0
			}
			c := m[k]
			c.Bytes += r.Bytes
			c.Packets += r.Packets
			c.Flows += r.Flows
			m[k] = c
		}
	}
	return m
}

// divergence is the traffic the pipeline attributed to another name of a
// long chain than the synchronous pass did.
func divergence(got, ref []rollup.Window) (bytes uint64) {
	g, w := windowMap(got, nil), windowMap(ref, nil)
	for k, c := range w {
		if gc := g[k]; gc.Bytes < c.Bytes {
			bytes += c.Bytes - gc.Bytes
		}
	}
	return bytes
}

// runPasses repeats closed-loop passes for at least d, checking each.
func (b *bench) runPasses(s *replaySetup, d time.Duration, w *tw) (passes []passResult, elapsed, cpu time.Duration) {
	runtime.GC()
	cpu0 := processCPU()
	for start := time.Now(); len(passes) == 0 || time.Since(start) < d; {
		r := s.pass(w)
		b.checkPass(len(passes), r, s.ref.windows, s.long)
		r.divBytes = divergence(r.windows, s.ref.windows)
		elapsed += r.elapsed
		r.windows = nil
		passes = append(passes, r)
	}
	return passes, elapsed, processCPU() - cpu0
}

func runReplay(b *bench) error {
	s, err := setupReplay(b)
	if err != nil {
		return err
	}
	passes, elapsed, cpu := b.runPasses(s, time.Duration(b.seconds)*time.Second, nil)
	var setups, fps, cpus []float64
	var lat [][]float64
	var offered, delivered int64
	var div uint64
	for _, p := range passes {
		div = max(div, p.divBytes)
		fps = append(fps, float64(p.delivered)/p.elapsed.Seconds())
		cpus = append(cpus, float64(p.cpu)/float64(p.delivered))
		setups = append(setups, p.setup.Seconds())
		lat = append(lat, p.latMs)
		offered += p.offered
		delivered += p.delivered
	}
	last := passes[len(passes)-1].stats
	b.set("setup_s", "s", median(setups))
	b.set("flows_per_s", "1/s", highDecile(fps))
	b.set("delivered_frac", "1", float64(delivered)/float64(offered))
	b.set("cpu_ns_per_flow", "ns", lowDecile(cpus))
	b.set("corr_rate_bytes", "1", last.CorrelationRate())
	b.percentiles("latency", "ms", lat, lat)
	rss, err := statusKB("/proc/self/status", "VmHWM:")
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", "MiB", rss)
	b.note("%d passes of %d flows in %d steps, one slice each (whole run %.0f flows/s, %.0f ns/flow); setup_s is the median core.New; latency is offer to sink entry, one flow in %d",
		len(passes), passes[0].offered, s.inp.steps(), float64(delivered)/elapsed.Seconds(), float64(cpu)/float64(delivered), latSample)
	b.note("finding: up to %d bytes per pass (%.4f%% of %d) went to another name of a CNAME chain longer than the walk limit than in the synchronous pass: memoizing a truncated walk makes the result depend on lane order",
		div, 100*float64(div)/float64(last.FlowBytes), last.FlowBytes)
	b.note("synchronous pass, one goroutine: input %.0f + fill %.0f + lookup %.0f + rollup %.0f = %.0f ns/flow, against %.0f ns/flow of process CPU in the pipeline (not gated)",
		s.ref.perFlow(s.ref.inputNs), s.ref.perFlow(s.ref.fillNs), s.ref.perFlow(s.ref.lookupNs), s.ref.perFlow(s.ref.rollupNs),
		s.ref.perFlow(s.ref.inputNs+s.ref.fillNs+s.ref.lookupNs+s.ref.rollupNs), float64(cpu)/float64(delivered))

	srv, err := serveWindows(b, s.ref.windows)
	if err != nil {
		return err
	}
	defer srv.stop()
	lo, hi := replayStart.Unix(), replayStart.Add(replaySteps*replayStepLen).Unix()
	// Clients and server share this process, so its CPU per query covers
	// both ends of each request.
	q, err := readBack(srv.base, newMix(lo, hi, 60, nil), b.seed, func() (time.Duration, error) { return processCPU(), nil })
	if err != nil {
		return err
	}
	b.queryMetrics(q)
	checked, problems := checkResponses(fromWindows(s.ref.windows), q.res)
	for _, p := range problems {
		b.fail("%s", p)
	}
	b.note("query check: %d distinct read-back requests compared with the synchronous reference windows", checked)
	b.res.Attempted = offered + int64(len(q.res))
	b.res.Failed = offered - delivered + int64(len(problems))
	return nil
}

func (r syncResult) perFlow(ns int64) float64 { return float64(ns) / float64(r.flows) }

// windowServer is an in-process window store and query plane over a fixed
// set of windows, for the replay read-back.
type windowServer struct {
	store  *winstore.Store
	srv    *queryapi.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

func serveWindows(b *bench, windows []rollup.Window) (*windowServer, error) {
	store, err := winstore.Open(winstore.Config{Dir: filepath.Join(b.dir, "replay-store")})
	if err != nil {
		return nil, err
	}
	if err := store.Add(windows); err != nil {
		return nil, err
	}
	if _, err := store.CompactBefore(time.Now()); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := queryapi.New(store, queryapi.WithListener(ln))
	if err != nil {
		ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &windowServer{store: store, srv: srv, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { w.done <- srv.Serve(ctx) }()
	return w, nil
}

func (w *windowServer) stop() {
	w.cancel()
	<-w.done
}
