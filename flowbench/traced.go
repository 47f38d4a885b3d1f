package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/winstore"
)

// tracedReplay measures replay-saturate's layers: half the run untraced and
// half traced through the same harness (the difference is the tracing
// overhead), the synchronous per-layer pass beside the pipeline's CPU cost,
// a restore of the reference state, and a traced read-back.
func tracedReplay(b *bench) error {
	s, err := setupReplay(b)
	if err != nil {
		return err
	}
	half := time.Duration(b.seconds) * time.Second / 2
	plain, plainElapsed, plainCPU := b.runPasses(s, half, nil)
	w := newTW()
	traced, tracedElapsed, _ := b.runPasses(s, half, w)
	flows := func(ps []passResult) (n int64) {
		for _, p := range ps {
			n += p.delivered
		}
		return n
	}
	plainFPS := float64(flows(plain)) / plainElapsed.Seconds()
	tracedFPS := float64(flows(traced)) / tracedElapsed.Seconds()
	cpuPerFlow := float64(plainCPU) / float64(flows(plain))

	m := map[string]float64{}
	w.coreLayers(m, traced[len(traced)-1].stats)
	m["trace.overhead_frac"] = 1 - tracedFPS/plainFPS
	ref := s.ref
	rows := 0
	for _, w := range ref.windows {
		rows += len(w.Rows)
	}
	m["rollup.windows_sealed"] = float64(len(ref.windows))
	m["rollup.rows_per_window"] = float64(rows) / float64(max(len(ref.windows), 1))
	m["core.fill_ns_per_record"] = float64(ref.fillNs) / float64(ref.dnsRecs)
	m["core.lookup_ns_per_flow"] = ref.perFlow(ref.lookupNs)
	sum := ref.perFlow(ref.inputNs + ref.fillNs + ref.lookupNs + ref.rollupNs)
	m["recon.sync_ns_per_flow"] = sum
	m["core.pipeline_overhead_ns_per_flow"] = cpuPerFlow - sum
	b.note("reconciliation (not gated): synchronous input %.0f + fill %.0f + lookup %.0f + rollup %.0f = %.0f ns/flow; pipeline CPU %.0f ns/flow; gap %.0f ns/flow",
		ref.perFlow(ref.inputNs), ref.perFlow(ref.fillNs), ref.perFlow(ref.lookupNs), ref.perFlow(ref.rollupNs), sum, cpuPerFlow, cpuPerFlow-sum)
	b.note("tracing overhead: %.0f flows/s untraced, %.0f traced (%.1f%%)", plainFPS, tracedFPS, 100*m["trace.overhead_frac"])

	ckpt := filepath.Join(b.dir, "replay.ckpt")
	if err := ref.corr.Checkpoint(ckpt); err != nil {
		return err
	}
	if err := restoreLayers(m, ckpt); err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := serveWindows(b, ref.windows)
	if err != nil {
		return err
	}
	m["winstore.open_s"] = time.Since(t0).Seconds()
	defer srv.stop()
	lo, hi := replayStart.Unix(), replayStart.Add(replaySteps*replayStepLen).Unix()
	qres, qm, err := w.tracedQueries(srv.srv, srv.store, srv.base, newMix(lo, hi, 60, nil), b.seed, time.Now().Add(time.Minute), tracedQuerys)
	if err != nil {
		return err
	}
	for k, v := range qm {
		m[k] = v
	}
	_, problems := checkResponses(fromWindows(ref.windows), qres)
	for _, p := range problems {
		b.fail("%s", p)
	}
	b.res.Attempted = flows(plain) + flows(traced) + int64(len(qres))
	b.setLayers(m)
	return w.t.report(b, b.traceFile())
}

// tracedWire assembles the daemon's components in process from their
// public constructors, as cmd/flowdns wires them, with every layer
// boundary wrapped, and drives it with the same sender and inputs as the
// untraced run.
func tracedWire(b *bench) error {
	s, err := setupWire(b)
	if err != nil {
		return err
	}
	m := map[string]float64{}
	if err := microLayers(m, s); err != nil {
		return err
	}
	snap := filepath.Join(b.dir, "traced.ckpt")
	if err := copyFile(s.files.checkpoint, snap); err != nil {
		return err
	}
	if err := restoreLayers(m, snap); err != nil {
		return err
	}
	w := newTW()
	t0 := time.Now()
	store, err := winstore.Open(winstore.Config{Dir: s.files.storeDir})
	if err != nil {
		return err
	}
	m["winstore.open_s"] = time.Since(t0).Seconds()
	engine := rollup.New(time.Second, 0)
	rs := rollup.NewSink(engine, rollup.WithRotation(time.Second), rollup.WithOnSeal(w.seal(store)),
		rollup.WithTable(s.in.table), rollup.WithBlocklist(s.in.list))
	pr, pw, err := os.Pipe()
	if err != nil {
		return err
	}
	defer pr.Close()
	sink := w.sink("core.write_batch", core.MultiSink{
		w.sink("tsv.write_batch", core.NewTSVSink(pw)),
		w.sink("rollup.write_batch", rs),
	})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	udpSrc := stream.NewFlowUDPSource(pc)
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	dnsSrc := stream.NewDNSListener(dln)
	qln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var corr *core.Correlator
	qsrv, err := queryapi.New(store, queryapi.WithListener(qln), queryapi.WithRollups(engine),
		queryapi.WithPipelineStats(func() core.Stats { return corr.Stats() }))
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.SnapshotPath = snap
	corr = core.New(cfg, core.WithSink(sink),
		core.WithSources(w.source(udpSrc), w.source(dnsSrc)),
		core.WithServices(store, qsrv))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- corr.Run(ctx) }()
	stopWatch := w.watch(corr)
	base := "http://" + qln.Addr().String()

	rr := newRowReader(s.sched, s.in.list)
	go rr.run(pr)
	udp, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		return err
	}
	defer udp.Close()
	tcp, err := net.Dial("tcp", dln.Addr().String())
	if err != nil {
		return err
	}
	defer tcp.Close()
	snmp0, err := rcvbufErrors()
	if err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond).Truncate(time.Millisecond)
	rr.t0.Store(start.UnixNano())
	dur := time.Duration(s.plan.ticks) * s.plan.tick
	type qout struct {
		res []qresult
		m   map[string]float64
		err error
	}
	qc := make(chan qout, 1)
	if s.spec.query {
		go func() {
			time.Sleep(time.Until(start))
			res, qm, err := w.tracedQueries(qsrv, store, base, s.queryMix(0, 0), b.seed, start.Add(dur), 1<<30)
			qc <- qout{res, qm, err}
		}()
	}
	st := send(s.sched, start, udp, tcp)
	drainQuiet(rr.rows.Load, 300*time.Millisecond, 10*time.Second)
	snmp1, err := rcvbufErrors()
	if err != nil {
		return err
	}
	last := start.Add(s.sched.due(len(s.plan.dgs) - 1)).Unix()
	for deadline := time.Now().Add(sealWait); ; time.Sleep(50 * time.Millisecond) {
		if _, newest := store.Bounds(); newest.Unix() > last {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("windows up to %d not sealed after %v", last+1, sealWait)
		}
	}
	var q qout
	if s.spec.query {
		q = <-qc
	} else {
		q.res, q.m, q.err = w.tracedQueries(qsrv, store, base, s.queryMix(start.Unix(), last), b.seed, time.Now().Add(time.Minute), tracedQuerys)
	}
	if q.err != nil {
		return q.err
	}
	stopWatch()
	tcp.Close()
	cancel()
	if err := <-done; err != nil {
		return err
	}
	pw.Close()
	<-rr.done

	for k, v := range q.m {
		m[k] = v
	}
	w.coreLayers(m, corr.Stats())
	sort.Float64s(st.lateMs)
	m["gen.late_p99_ms"] = quantile(st.lateMs, 0.99)
	m["gen.dns_unencodable"] = float64(s.plan.dnsUnencodable)
	m["gen.datagrams_sent"] = float64(st.datagrams)
	m["stream.kernel_rcvbuf_drops"] = float64(snmp1 - snmp0)
	m["stream.decode_errors"] = float64(udpSrc.Stats().DecodeError + dnsSrc.Stats().DecodeError)
	b.note("in-process run: %d of %d flows delivered; the in-process sender and TSV reader share the CPUs with the pipeline here",
		rr.rows.Load(), len(s.plan.flows))
	exp := fromMap(rr.windows)
	if s.spec.query {
		exp = s.hist
	}
	_, problems := checkResponses(exp, q.res)
	for _, p := range problems {
		b.fail("%s", p)
	}
	if rr.bad > 0 || rr.dup > 0 {
		b.fail("%d rows do not match a sent flow, %d duplicate rows; first: %s", rr.bad, rr.dup, rr.firstBad)
	}
	if w.addErr != nil {
		b.fail("window store: %v", w.addErr)
	}
	b.res.Attempted = int64(len(s.plan.flows) + len(q.res))
	b.setLayers(m)
	return w.t.report(b, b.traceFile())
}

// microLayers times the decode, fill, lookup and rollup layers on one
// goroutine over the workload's own pre-encoded inputs: every datagram
// through netflow.DecodeV9, every DNS response through dnswire.Decode and
// stream.FlattenResponseInto, then per tick IngestDNSBatch, CorrelateBatch
// and rollup.Sink.WriteBatch.
func microLayers(m map[string]float64, s *wireSetup) error {
	p := s.plan
	cache := netflow.NewTemplateCache()
	c := core.New(core.DefaultConfig())
	rs := rollup.NewSink(rollup.New(time.Second, 0), rollup.WithTable(s.in.table), rollup.WithBlocklist(s.in.list))
	defer rs.Close()
	base := time.Now()
	var (
		recs                                []stream.DNSRecord
		flows                               []netflow.FlowRecord
		out                                 []core.CorrelatedFlow
		decNs, dnsNs, fillNs, lookNs, rolNs time.Duration
		nflows, nmsgs, nrecs                int
	)
	ctx := context.Background()
	for t := 0; t < p.ticks; t++ {
		ts := base.Add(time.Duration(t) * p.tick)
		recs, flows = recs[:0], flows[:0]
		t0 := time.Now()
		for b := p.dns[p.dnsByTick[t]:p.dnsByTick[t+1]]; len(b) >= 2; {
			n := int(b[0])<<8 | int(b[1])
			msg, err := dnswire.Decode(b[2 : 2+n])
			if err != nil {
				return err
			}
			recs = stream.FlattenResponseInto(recs, msg, ts)
			b = b[2+n:]
			nmsgs++
		}
		t1 := time.Now()
		for i := int(p.dgByTick[t]); i < int(p.dgByTick[t+1]); i++ {
			pkt := p.packet(i)
			stampDatagram(pkt, &p.dgs[i], ts.UnixMilli())
			dp, err := netflow.DecodeV9(pkt, cache)
			if err != nil {
				return err
			}
			flows = append(flows, dp.Records...)
		}
		t2 := time.Now()
		c.IngestDNSBatch(recs)
		t3 := time.Now()
		out = c.CorrelateBatch(out[:0], flows)
		t4 := time.Now()
		if err := rs.WriteBatch(ctx, out); err != nil {
			return err
		}
		t5 := time.Now()
		dnsNs += t1.Sub(t0)
		decNs += t2.Sub(t1)
		fillNs += t3.Sub(t2)
		lookNs += t4.Sub(t3)
		rolNs += t5.Sub(t4)
		nflows += len(flows)
		nrecs += len(recs)
	}
	m["netflow.decode_ns_per_flow"] = float64(decNs) / float64(nflows)
	m["dnswire.decode_ns_per_msg"] = float64(dnsNs) / float64(max(nmsgs, 1))
	m["core.fill_ns_per_record"] = float64(fillNs) / float64(max(nrecs, 1))
	m["core.lookup_ns_per_flow"] = float64(lookNs) / float64(nflows)
	m["recon.sync_ns_per_flow"] = float64(dnsNs+decNs+fillNs+lookNs+rolNs) / float64(nflows)
	return nil
}
