package forward

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// testWorker is one in-process downstream correlator with real listening
// sockets, standing in for a worker process.
type testWorker struct {
	name string
	corr *core.Correlator
	sink *core.CountingSink
	node Node

	cancel context.CancelFunc
	done   chan error
}

func startWorker(t *testing.T, name string) *testWorker {
	t.Helper()
	dnsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewCountingSink()
	c := core.New(core.DefaultConfig(),
		core.WithSink(sink),
		core.WithSources(stream.NewDNSListener(dnsLn), stream.NewFlowUDPSource(nfConn)),
	)
	ctx, cancel := context.WithCancel(context.Background())
	w := &testWorker{
		name: name,
		corr: c,
		sink: sink,
		node: Node{
			Name:     name,
			FlowAddr: nfConn.LocalAddr().String(),
			DNSAddr:  dnsLn.Addr().String(),
		},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { w.done <- c.Run(ctx) }()
	return w
}

func (w *testWorker) stop(t *testing.T) {
	t.Helper()
	w.cancel()
	if err := <-w.done; err != nil {
		t.Fatalf("worker %s: Run = %v", w.name, err)
	}
}

// waitStats polls until cond sees the wanted totals or the deadline hits.
func waitStats(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("%s: condition never met", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestRouterFanout drives the full distributed tier in-process: a router
// fed through its stream.Ingest surface fans DNS and flows out over real
// loopback sockets to two worker correlators, and the union of the
// workers' attributions must equal a single-process oracle run over the
// same records — the linear-scale-out correctness claim in miniature.
func TestRouterFanout(t *testing.T) {
	w1 := startWorker(t, "w1")
	w2 := startWorker(t, "w2")
	workers := []*testWorker{w1, w2}

	r, err := NewRouter(Config{Nodes: []Node{w1.node, w2.node}})
	if err != nil {
		t.Fatal(err)
	}

	// A service universe with CNAME chains (name -> edge -> address) so the
	// broadcast path is load-bearing: a worker can only resolve a chain it
	// holds completely. Every 8th service is IPv6 to exercise the v6
	// template on the flow wire.
	const services = 64
	type svc struct {
		name, edge string
		addr       netip.Addr
	}
	svcs := make([]svc, services)
	var dns []stream.DNSRecord
	now := time.Now()
	for i := range svcs {
		s := svc{
			name: fmt.Sprintf("svc%02d.example", i),
			edge: fmt.Sprintf("edge%02d.cdn.example", i),
		}
		rtype := dnswire.TypeA
		if i%8 == 7 {
			s.addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 15: byte(i + 1)})
			rtype = dnswire.TypeAAAA
		} else {
			s.addr = netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)})
		}
		svcs[i] = s
		dns = append(dns,
			stream.DNSRecord{Timestamp: now, Query: s.name, RType: dnswire.TypeCNAME, TTL: 300, Answer: s.edge},
			stream.DNSRecord{Timestamp: now, Query: s.edge, RType: rtype, TTL: 300, Addr: s.addr},
		)
	}

	if got := r.OfferDNSBatch(dns); got != len(dns) {
		t.Fatalf("router accepted %d of %d DNS records", got, len(dns))
	}
	// Every CNAME is broadcast to both workers, every A/AAAA lands on its
	// one owner: 2*services CNAME copies + services addressed records.
	wantDNS := uint64(2*services + services)
	waitStats(t, "DNS fanout", func() bool {
		return w1.corr.Stats().DNSRecords+w2.corr.Stats().DNSRecords == wantDNS
	})

	var flows []netflow.FlowRecord
	for i, s := range svcs {
		dst := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		if !s.addr.Is4() {
			dst = netip.AddrFrom16([16]byte{0xfd, 15: byte(i + 1)})
		}
		// Several flows per service so per-name byte counts are non-trivial.
		for j := 0; j < 3; j++ {
			flows = append(flows, netflow.FlowRecord{
				Timestamp: now, SrcIP: s.addr, DstIP: dst,
				SrcPort: 443, DstPort: uint16(50000 + j), Proto: netflow.ProtoTCP,
				Packets: 10, Bytes: uint64(1000 + i),
			})
		}
	}
	if got := r.OfferFlowBatch(flows); got != len(flows) {
		t.Fatalf("router accepted %d of %d flows", got, len(flows))
	}
	waitStats(t, "flow fanout", func() bool {
		return w1.corr.Stats().Flows+w2.corr.Stats().Flows == uint64(len(flows))
	})

	// Per-node zero-loss: every accepted record is enqueued, none dropped
	// or shed (the Offered == Enqueued + Dropped + Sampled ledger with the
	// loss terms pinned to zero).
	for _, w := range workers {
		st := w.corr.Stats()
		if st.FillQueue.Dropped+st.LookQueue.Dropped+st.WriteQueue.Dropped != 0 ||
			st.FillQueue.Sampled+st.LookQueue.Sampled+st.WriteQueue.Sampled != 0 {
			t.Fatalf("worker %s: accepted-record loss: %+v", w.name, st)
		}
	}
	w1.stop(t)
	w2.stop(t)

	// Oracle: one correlator, same records, synchronous replay.
	oracle := core.New(core.DefaultConfig())
	oracleSink := core.NewCountingSink()
	oracle.IngestDNSBatch(dns)
	oracleSink.WriteBatch(context.Background(), oracle.CorrelateBatch(nil, flows))

	merged := map[string]uint64{}
	for _, w := range workers {
		for name, b := range w.sink.Bytes() {
			merged[name] += b
		}
	}
	want := oracleSink.Bytes()
	if len(merged) != len(want) {
		t.Fatalf("cluster resolved %d names, oracle %d\ncluster: %v\noracle:  %v", len(merged), len(want), merged, want)
	}
	for name, b := range want {
		if merged[name] != b {
			t.Fatalf("bytes[%q] = %d across cluster, oracle %d", name, merged[name], b)
		}
	}
	if _, miss := merged[""]; miss {
		t.Fatalf("cluster had unattributed flows: %v", merged)
	}

	// Router-side ledger: every record accounted, nothing dropped or spilled.
	var fsum, dsum, csum uint64
	for _, st := range r.Stats() {
		fsum += st.Flows
		dsum += st.DNS
		csum += st.DNSCname
		if st.DNSDropped != 0 || st.Retry.Dropped != 0 || st.Retry.SpillDepth != 0 {
			t.Fatalf("node %s: drops on a healthy cluster: %+v", st.Node.Name, st)
		}
	}
	if fsum != uint64(len(flows)) || dsum != services || csum != 2*services {
		t.Fatalf("router ledger: flows=%d dns=%d cname=%d", fsum, dsum, csum)
	}

	// Both workers must have received traffic, or the "distribution" was a
	// single-node degenerate case proving nothing.
	if w1.corr.Stats().Flows == 0 || w2.corr.Stats().Flows == 0 {
		t.Fatalf("degenerate split: w1=%d w2=%d flows", w1.corr.Stats().Flows, w2.corr.Stats().Flows)
	}
}

// TestRouterAbsorbsDeadWorker: flows routed at a node whose socket is gone
// land in the node's RetrySink spill queue — accounted backpressure, not
// silent loss and not an ingest stall.
func TestRouterAbsorbsDeadWorker(t *testing.T) {
	// A socket we open and immediately close: the router's connected UDP
	// socket gets ICMP-driven write errors for it.
	tmp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := tmp.LocalAddr().String()
	tmp.Close()
	tcpTmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadTCP := tcpTmp.Addr().String()
	tcpTmp.Close()

	r, err := NewRouter(Config{
		Nodes: []Node{{Name: "dead", FlowAddr: deadAddr, DNSAddr: deadTCP}},
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]netflow.FlowRecord, 256)
	for i := range flows {
		flows[i] = netflow.FlowRecord{
			SrcIP: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
			DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			Bytes: 100,
		}
	}
	// The offer itself must accept (absorb semantics) and must not block.
	for i := 0; i < 4; i++ {
		if got := r.OfferFlowBatch(flows); got != len(flows) {
			t.Fatalf("offer %d: accepted %d", i, got)
		}
	}
	st := r.Stats()[0]
	// Connected-UDP error delivery is asynchronous (the ICMP answer fails
	// the NEXT write), so at least the later batches must have spilled.
	if st.Retry.Spilled == 0 && st.Retry.Delivered == uint64(4*len(flows)) {
		t.Fatalf("no spill against a dead worker: %+v", st.Retry)
	}
	if got := r.OfferDNSBatch([]stream.DNSRecord{{Query: "a.example", RType: dnswire.TypeCNAME, Answer: "b.example"}}); got != 0 {
		t.Fatalf("DNS against dead node accepted %d", got)
	}
	if st := r.Stats()[0]; st.DNSDropped == 0 {
		t.Fatalf("DNS drop not accounted: %+v", st)
	}
}
