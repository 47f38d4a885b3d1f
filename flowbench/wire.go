package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/winstore"
)

// wireSpec is the traffic shape of one daemon workload.
type wireSpec struct {
	rate      int           // flows per second, open loop
	tick      time.Duration // schedule tick
	slotTicks int           // ticks sent back to back per slot
	query     bool          // history store plus concurrent query clients
}

func specFor(workload string) wireSpec {
	switch workload {
	case "wire-burst":
		return wireSpec{rate: 100_000, tick: time.Millisecond, slotTicks: 100}
	case "query-mixed":
		return wireSpec{rate: 10_000, tick: 10 * time.Millisecond, slotTicks: 1, query: true}
	default: // wire-paced
		return wireSpec{rate: 100_000, tick: time.Millisecond, slotTicks: 1}
	}
}

const (
	setupBoots   = 11 // daemon boots per run; setup_s is their median
	warmDNS      = 3 * time.Second
	historyHours = 4                       // query-mixed: sealed history in the store
	historyFlows = 1000                    // query-mixed: flows per one-minute history window
	readbackWarm = 400                     // read-back queries before timing starts
	readbackFor  = 12 * time.Second        // wire-* and replay: timed read-back after ingest
	readbackMin  = 3100                    // ... and at least this many queries
	queryEvery   = 2500 * time.Microsecond // each query client sends one request per interval
	tracedQuerys = 1600                    // traced runs: sequential queries
	queryClients = 2                       // HTTP query clients (nproc = 2)
	sealWait     = 15 * time.Second
	cpuSlice     = 500 * time.Millisecond // slice of the send schedule, see lowDecile
	// querySlice holds about 800 queries, so the share of cache misses in
	// a slice, which sets its CPU per query, varies by a few % at most.
	querySlice = time.Second
)

// wireSetup is everything a daemon workload prepares before timing starts.
type wireSetup struct {
	spec  wireSpec
	in    *inputs
	plan  *wirePlan
	sched schedule
	files daemonFiles
	// query-mixed: the sealed history written to the store, [histLo,
	// histHi) in unix seconds, and the partition that live seals write.
	hist           *expected
	histLo, histHi int64
}

func setupWire(b *bench) (*wireSetup, error) {
	s := &wireSetup{spec: specFor(b.workload)}
	if b.rate > 0 {
		s.spec.rate = b.rate
	}
	var err error
	if s.in, err = newInputs(b.seed); err != nil {
		return nil, err
	}
	now := time.Now()
	s.files.storeDir = filepath.Join(b.dir, "store")
	if s.spec.query {
		// History ends at the current hour: dashboards over it never touch
		// the partition the live seals write, so they stay cached.
		end := now.Truncate(time.Hour)
		windows, err := s.in.historyWindows(^b.seed, end, historyHours, time.Minute, historyFlows)
		if err != nil {
			return nil, err
		}
		st, err := winstore.Open(winstore.Config{Dir: s.files.storeDir})
		if err != nil {
			return nil, err
		}
		if err := st.Add(windows); err != nil {
			return nil, err
		}
		if _, err := st.CompactBefore(now); err != nil {
			return nil, err
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		s.hist = fromWindows(windows)
		s.histLo, s.histHi = end.Add(-historyHours*time.Hour).Unix(), end.Unix()
	}
	if s.plan, err = s.in.buildWirePlan(now, s.spec.rate, s.spec.tick, time.Duration(b.seconds)*time.Second, warmDNS); err != nil {
		return nil, err
	}
	s.sched = schedule{plan: s.plan, slotTicks: s.spec.slotTicks}
	s.files.checkpoint = filepath.Join(b.dir, "warm.ckpt")
	if err := writeCheckpoint(s.files.checkpoint, s.plan.warm); err != nil {
		return nil, err
	}
	s.plan.warm = nil
	if s.files.bgp, s.files.dbl, err = s.in.writeTables(b.dir); err != nil {
		return nil, err
	}
	return s, nil
}

// queryMix is the request mix of a workload: the live query-mixed mix over
// the stored history, or the read-back mix over the seconds just ingested.
func (s *wireSetup) queryMix(first, last int64) *qmix {
	if !s.spec.query {
		return newMix(first, last+1, 1, nil)
	}
	var live []qreq
	for d := range dimNames {
		for _, from := range []int64{s.histHi - 3600, s.histHi - 600} {
			live = append(live, qreq{dim: d, from: from, to: s.histHi + 3600, top: 10})
		}
	}
	return newMix(s.histLo, s.histHi, 60, live)
}

// runWire is the untraced run of wire-paced, wire-burst and query-mixed
// against the flowdns binary.
func runWire(b *bench) error {
	s, err := setupWire(b)
	if err != nil {
		return err
	}
	var boots []float64
	for i := 0; i < setupBoots-1; i++ {
		d, err := startDaemon(b.daemon, b.dir, s.files, fmt.Sprint("boot", i), false)
		if err != nil {
			return err
		}
		boots = append(boots, d.ready.Seconds())
		if err := d.stop(); err != nil {
			return err
		}
	}
	d, err := startDaemon(b.daemon, b.dir, s.files, "run", true)
	if err != nil {
		return err
	}
	boots = append(boots, d.ready.Seconds())
	defer func() {
		select {
		case <-d.exited:
		default:
			d.kill()
		}
		d.stdout.Close()
	}()
	b.set("setup_s", "s", median(boots))
	b.note("setup_s: median of %d boots, exec to /query/health answering (restore and store load included)", len(boots))

	rr := newRowReader(s.sched, s.in.list)
	go rr.run(d.stdout)
	udp, err := net.Dial("udp", d.flowAddr)
	if err != nil {
		return err
	}
	defer udp.Close()
	tcp, err := net.Dial("tcp", d.dnsAddr)
	if err != nil {
		return err
	}
	defer tcp.Close()

	snmp0, err := rcvbufErrors()
	if err != nil {
		return err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return err
	}
	t0 := time.Now().Add(20 * time.Millisecond).Truncate(time.Millisecond)
	rr.t0.Store(t0.UnixNano())
	dur := time.Duration(s.plan.ticks) * s.plan.tick
	var (
		qwg  sync.WaitGroup
		q    queryPhase
		qerr error
	)
	if s.spec.query {
		qwg.Add(2)
		var answered atomic.Int64
		go func() {
			defer qwg.Done()
			time.Sleep(time.Until(t0))
			q.res, qerr = runQueries(d.base, queryClients, s.queryMix(0, 0), b.seed, t0.Add(dur), 0, &answered, queryEvery)
			q.start, q.dur = t0, time.Since(t0)
		}()
		go func() {
			defer qwg.Done()
			q.cpu = sliceRates(d.cpu, answered.Load, t0, dur, querySlice)
		}()
	}
	cpuc := make(chan []float64, 1)
	go func() { cpuc <- sliceRates(d.cpu, rr.rows.Load, t0, dur, cpuSlice) }()
	st := send(s.sched, t0, udp, tcp)
	qwg.Wait()
	perSlice := <-cpuc
	drainQuiet(rr.rows.Load, 300*time.Millisecond, 10*time.Second)
	cpu1, err := d.cpu()
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	snmp1, err := rcvbufErrors()
	if err != nil {
		return err
	}
	firstSec := t0.Unix()
	lastSec := t0.Add(s.sched.due(len(s.plan.dgs) - 1)).Unix()
	if err := waitSealed(d.base, lastSec+1); err != nil {
		return err
	}
	met, err := scrapeMetrics(d.base)
	if err != nil {
		return err
	}
	if !s.spec.query {
		q, qerr = readBack(d.base, s.queryMix(firstSec, lastSec), b.seed, d.cpu)
	}
	if qerr != nil {
		return fmt.Errorf("query client: %w", qerr)
	}
	tcp.Close()
	if err := d.stop(); err != nil {
		return err
	}
	<-rr.done
	if rr.err != nil {
		return fmt.Errorf("reading rows: %w", rr.err)
	}

	delivered := rr.rows.Load()
	sent := int64(len(s.plan.flows))
	b.res.Attempted = sent + int64(len(q.res))
	if st.errs > 0 {
		b.fail("%d send errors, first: %v", st.errs, st.firstErr)
		b.res.Failed += int64(st.errs)
	}
	if rr.bad > 0 || rr.dup > 0 {
		b.fail("%d rows do not match a sent flow, %d duplicate rows; first: %s", rr.bad, rr.dup, rr.firstBad)
	}
	lost := queueLost(met, "look") + queueLost(met, "write")
	b.res.Failed += b.ledger(s.plan, rr.arrive, int64(snmp1-snmp0), lost)

	var got []int
	for seq, a := range rr.arrive {
		if a != 0 {
			got = append(got, seq)
		}
	}
	due := func(i int) time.Duration { return s.sched.due(int(s.plan.flows[got[i]].dg)) }
	lat := slices(int(dur/cpuSlice), dur, due, func(i int) float64 { return ms(time.Duration(rr.arrive[got[i]]) - due(i)) }, len(got))
	b.percentiles("latency", "ms", lat, lat)
	b.set("flows_per_s", "1/s", float64(delivered)/dur.Seconds())
	b.set("delivered_frac", "1", float64(delivered)/float64(sent))
	b.set("cpu_ns_per_flow", "ns", lowDecile(perSlice))
	b.note("cpu_ns_per_flow: 10th percentile of %d slices of %v; whole run %.0f ns/flow", len(perSlice), cpuSlice, float64(cpu1-cpu0)/float64(max(delivered, 1)))
	b.set("peak_rss_mb", "MiB", rss)
	b.set("corr_rate_bytes", "1", float64(rr.corrBytes)/float64(max(rr.allBytes, 1)))
	b.queryMetrics(q)
	b.note("sent %d flows in %d datagrams and %d DNS responses (%d DNS events the wire format cannot encode)",
		sent, st.datagrams, st.dnsFrames, s.plan.dnsUnencodable)
	sort.Float64s(st.lateMs)
	b.note("sender late p50 %.3f ms, p99 %.3f ms over %d slots", quantile(st.lateMs, 0.5), quantile(st.lateMs, 0.99), len(st.lateMs))
	b.note("daemon /metrics flowdns_loss_rate %g (fill queue lost %d)", met["flowdns_loss_rate"], queueLost(met, "fill"))

	exp := fromMap(rr.windows)
	if s.spec.query {
		exp = s.hist
	}
	checked, problems := checkResponses(exp, q.res)
	for _, p := range problems {
		b.fail("%s", p)
	}
	b.res.Failed += int64(len(problems))
	if s.spec.query {
		b.note("query check: %d distinct requests over the sealed history compared with the windows set-up wrote", checked)
	} else {
		b.note("query check: %d distinct read-back requests compared with the windows the TSV rows imply", checked)
	}
	return nil
}

// readBack runs the read-back phase after ingest: a warm-up
// that fills connection pools and the dashboard cache entries, then the
// timed queries.
func readBack(base string, mix *qmix, seed int64, cpu func() (time.Duration, error)) (queryPhase, error) {
	far := time.Now().Add(time.Hour)
	if _, err := runQueries(base, queryClients, mix, seed+1, far, readbackWarm, nil, 0); err != nil {
		return queryPhase{}, err
	}
	q := queryPhase{start: time.Now()}
	var answered atomic.Int64
	rates := make(chan []float64, 1)
	go func() { rates <- sliceRates(cpu, answered.Load, q.start, readbackFor, querySlice) }()
	var err error
	q.res, err = runQueries(base, queryClients, mix, seed, q.start.Add(readbackFor), 0, &answered, queryEvery)
	if n := readbackMin - len(q.res); n > 0 && err == nil {
		// A slow host: keep going until p99 has 30 samples beyond it.
		var more []qresult
		more, err = runQueries(base, queryClients, mix, seed+2, far, int64(n), &answered, queryEvery)
		q.res = append(q.res, more...)
	}
	q.dur = time.Since(q.start)
	q.cpu = <-rates
	return q, err
}

// queryPhase is one query phase: its answers and the CPU the
// serving process spent per answer in each slice.
type queryPhase struct {
	res   []qresult
	start time.Time
	dur   time.Duration
	cpu   []float64 // ns per answered query, per querySlice
}

// sliceRates samples cpu and count at t0 and at every slice boundary up to
// t0+dur, and returns the CPU ns per unit of count in each slice that saw
// any.
func sliceRates(cpu func() (time.Duration, error), count func() int64, t0 time.Time, dur, slice time.Duration) []float64 {
	var out []float64
	time.Sleep(time.Until(t0))
	c0, err := cpu()
	n0 := count()
	for k := slice; k <= dur && err == nil; k += slice {
		time.Sleep(time.Until(t0.Add(k)))
		var c time.Duration
		if c, err = cpu(); err == nil {
			n := count()
			if n > n0 {
				out = append(out, float64(c-c0)/float64(n-n0))
			}
			c0, n0 = c, n
		}
	}
	return out
}

// waitSealed waits until the store holds windows up to end (unix s).
func waitSealed(base string, end int64) error {
	deadline := time.Now().Add(sealWait)
	for {
		newest, err := storeNewest(base)
		if err != nil {
			return err
		}
		if newest >= end {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store newest window ends at %d, want %d after %v", newest, end, sealWait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// queueLost sums the dropped and sampled records of one stage queue.
func queueLost(met map[string]float64, queue string) int64 {
	l := `{queue="` + queue + `"}`
	return int64(met["flowdns_queue_dropped_total"+l] + met["flowdns_queue_sampled_total"+l])
}

// ledger accounts for every sent flow: delivered as a row, or lost to the
// kernel (a datagram none of whose flows arrived, up to the namespace's
// RcvbufErrors delta), or to a stage queue's drop or sample counter. A
// flow none of these explains is unattributed and fails the run. It
// returns the unattributed count.
func (b *bench) ledger(p *wirePlan, arrive []int64, kernelDrops, queueLost int64) int64 {
	var delivered, whole, wholeFlows int64
	for _, dg := range p.dgs {
		got := 0
		for seq := dg.first; seq < dg.first+uint32(dg.count); seq++ {
			if arrive[seq] != 0 {
				got++
			}
		}
		delivered += int64(got)
		if got == 0 {
			whole++
			wholeFlows += int64(dg.count)
		}
	}
	missing := int64(len(p.flows)) - delivered
	kernelFlows := wholeFlows
	if whole > kernelDrops {
		kernelFlows = wholeFlows * kernelDrops / whole
	}
	unattributed := max(0, missing-kernelFlows-queueLost)
	b.note("loss ledger: sent %d, delivered %d, missing %d = kernel %d (%d whole datagrams lost, RcvbufErrors +%d in this network namespace, all processes) + stage queues %d + unattributed %d",
		len(p.flows), delivered, missing, kernelFlows, whole, kernelDrops, min(queueLost, missing-kernelFlows), unattributed)
	if unattributed > 0 {
		b.fail("%d flows lost without a kernel or queue counter to explain them", unattributed)
	}
	return unattributed
}

// queryMetrics records query_cpu_us, the serving process's CPU per answered
// query, and reports the rate and latency without gating them: measured
// closed loop, sub-millisecond round trips and a CPU-bound rate varied
// 20-80 % between runs on the shared host, far beyond any bound.
func (b *bench) queryMetrics(q queryPhase) {
	b.set("query_cpu_us", "us", lowDecile(q.cpu)/1e3)
	lat := make([]float64, len(q.res))
	for i, r := range q.res {
		lat[i] = ms(r.lat)
	}
	sort.Float64s(lat)
	b.note("queries (not gated): %.0f/s, p50 %.3f ms, p99 %.3f ms over %d answers; query_cpu_us is the 10th percentile of %d slices",
		float64(len(q.res))/q.dur.Seconds(), quantile(lat, 0.5), quantile(lat, 0.99), len(lat), len(q.cpu))
}
