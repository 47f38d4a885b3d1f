package core

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netflow"
	"repro/internal/stream"
)

func laneFlow(ts time.Time, srcIP, dstIP string, bytes uint64) netflow.FlowRecord {
	return netflow.FlowRecord{
		Timestamp: ts,
		SrcIP:     netip.MustParseAddr(srcIP),
		DstIP:     netip.MustParseAddr(dstIP),
		Packets:   1, Bytes: bytes, Proto: netflow.ProtoTCP,
	}
}

// TestLanePartitionInvariant pins the partitioning contract: the lane of a
// flow is a pure function of its destination IP, so flows to the same
// destination always land on the same lane, and OfferFlowBatch enqueues on
// exactly that lane's queue.
func TestLanePartitionInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSplit = 8
	c := New(cfg)
	if c.Lanes() != 8 {
		t.Fatalf("Lanes() = %d, want 8", c.Lanes())
	}
	seen := make(map[string]int)
	for i := 0; i < 256; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i / 16), byte(i%16 + 1)})
		lane := c.laneFor(dst)
		if lane < 0 || lane >= 8 {
			t.Fatalf("laneFor(%v) = %d out of range", dst, lane)
		}
		if prev, ok := seen[dst.String()]; ok && prev != lane {
			t.Fatalf("dst %v moved lanes: %d then %d", dst, prev, lane)
		}
		seen[dst.String()] = lane
		// Same address again — and as a v4-mapped v6 address — must agree.
		if l2 := c.laneFor(dst); l2 != lane {
			t.Fatalf("laneFor(%v) unstable: %d vs %d", dst, lane, l2)
		}
		mapped := netip.AddrFrom16(dst.As16())
		if l3 := c.laneFor(mapped); l3 != lane {
			t.Fatalf("v4-mapped %v landed on lane %d, v4 on %d", mapped, l3, lane)
		}
	}
	// The partition must actually spread destinations across lanes.
	used := make(map[int]bool)
	for _, l := range seen {
		used[l] = true
	}
	if len(used) < 4 {
		t.Fatalf("256 destinations used only %d of 8 lanes", len(used))
	}

	// OfferFlowBatch routes onto the owning lane's queue.
	fr := laneFlow(t0, "198.51.100.1", "203.0.113.77", 100)
	want := c.laneFor(fr.DstIP)
	if !offerFlow(c, fr) {
		t.Fatal("offer rejected on empty queue")
	}
	depths := c.LaneDepths()
	for i, d := range depths {
		if i == want && d != 1 {
			t.Fatalf("lane %d depth = %d, want 1", i, d)
		}
		if i != want && d != 0 {
			t.Fatalf("lane %d depth = %d, want 0", i, d)
		}
	}
}

// TestLaneDefaults pins the lane count: one lane per split (the paper's
// per-split design), and the NoSplit ablation collapses to a single lane.
func TestLaneDefaults(t *testing.T) {
	if got := New(DefaultConfig()).Lanes(); got != DefaultNumSplit {
		t.Fatalf("default lanes = %d, want NumSplit %d", got, DefaultNumSplit)
	}
	if got := New(ConfigForVariant(VariantNoSplit)).Lanes(); got != 1 {
		t.Fatalf("NoSplit lanes = %d, want 1", got)
	}
	cfg := DefaultConfig()
	cfg.NumSplit = 3
	if got := New(cfg).Lanes(); got != 3 {
		t.Fatalf("NumSplit 3: lanes = %d, want 3", got)
	}
}

// TestDefaultTopology pins the pipeline New(DefaultConfig()) builds: the
// workers that run, the per-lane and write queue sizes, and the split and
// lane of every binary key (ipHash % 10).
func TestDefaultTopology(t *testing.T) {
	c := New(DefaultConfig())
	cfg := c.Config()
	if c.Lanes() != 10 || cfg.NumSplit != 10 {
		t.Fatalf("lanes = %d, NumSplit = %d, want 10/10", c.Lanes(), cfg.NumSplit)
	}
	if cfg.FillUpWorkers != 10 || cfg.LookUpWorkers != 10 || cfg.WriteWorkers != 2 {
		t.Fatalf("workers fill/look/write = %d/%d/%d, want 10/10/2",
			cfg.FillUpWorkers, cfg.LookUpWorkers, cfg.WriteWorkers)
	}
	// A queue's capacity is what it accepts from a larger batch.
	for i, l := range c.lanes {
		fill := l.fill.OfferBatch(make([]stream.DNSRecord, 7000))
		look := l.look.OfferBatch(make([]flowEntry, 7000))
		if fill != 6553 || look != 6553 {
			t.Fatalf("lane %d queue caps fill/look = %d/%d, want 6553", i, fill, look)
		}
	}
	if got := c.writeQ.OfferBatch(make([]CorrelatedFlow, 70000)); got != 65536 {
		t.Fatalf("write queue cap = %d, want 65536", got)
	}
	for i := 0; i < 4096; i++ {
		key := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}).As16()
		h := ipHash(&key)
		if got, want := c.ipName.splitFor(h), int(h%10); got != want {
			t.Fatalf("key %d: split %d, want %d", i, got, want)
		}
		if got := c.laneForHash(h); got != c.ipName.splitFor(h) {
			t.Fatalf("key %d: lane %d, split %d", i, got, c.ipName.splitFor(h))
		}
	}

	nosplit := New(ConfigForVariant(VariantNoSplit))
	ncfg := nosplit.Config()
	if nosplit.Lanes() != 1 || ncfg.FillUpWorkers != 4 || ncfg.LookUpWorkers != 10 {
		t.Fatalf("NoSplit: lanes %d, workers fill/look %d/%d, want 1, 4/10",
			nosplit.Lanes(), ncfg.FillUpWorkers, ncfg.LookUpWorkers)
	}
}

// TestCorrelateBatchMatchesCorrelateFlow checks that one many-flow batch
// (the lane-worker shape) and the same flows as one-element batches produce
// identical results and identical stats.
func TestCorrelateBatchMatchesCorrelateFlow(t *testing.T) {
	mk := func() *Correlator {
		c := New(DefaultConfig())
		ingest(c, cnameRec(t0, "service.com", "edge.cdn.net", 300))
		ingest(c, aRec(t0, "edge.cdn.net", "198.51.100.10", 60))
		ingest(c, aRec(t0, "plain.example", "198.51.100.11", 60))
		return c
	}
	frs := []netflow.FlowRecord{
		laneFlow(t0.Add(time.Second), "198.51.100.10", "203.0.113.1", 100),
		laneFlow(t0.Add(time.Second), "198.51.100.11", "203.0.113.2", 200),
		laneFlow(t0.Add(time.Second), "198.51.100.99", "203.0.113.3", 300), // miss
		{}, // invalid
	}
	single := mk()
	var want []CorrelatedFlow
	for _, fr := range frs {
		want = append(want, correlate(single, fr))
	}
	batch := mk()
	got := batch.CorrelateBatch(nil, frs)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Tier != want[i].Tier || got[i].ChainLen != want[i].ChainLen {
			t.Fatalf("record %d: batch %+v, single %+v", i, got[i], want[i])
		}
	}
	bs, ss := batch.Stats(), single.Stats()
	bs.NameCnameEntries, ss.NameCnameEntries = 0, 0 // memoization writes are shared state, compared below
	bs.IPNameEntries, ss.IPNameEntries = 0, 0
	if bs.Flows != ss.Flows || bs.Correlated != ss.Correlated || bs.Misses != ss.Misses ||
		bs.FlowInvalid != ss.FlowInvalid || bs.FlowBytes != ss.FlowBytes ||
		bs.CorrelatedBytes != ss.CorrelatedBytes || bs.ChainHist != ss.ChainHist {
		t.Fatalf("stats diverge:\nbatch  %+v\nsingle %+v", bs, ss)
	}
}

// gatedSink holds every WriteBatch until gate closes.
type gatedSink struct {
	*flowCounter
	gate chan struct{}
}

func (s *gatedSink) WriteBatch(ctx context.Context, batch []CorrelatedFlow) error {
	<-s.gate
	return s.flowCounter.WriteBatch(ctx, batch)
}

// TestDrainFullLanesDeliversEverything is the drain-ordering regression
// test: cancelling the run while the write queue and every lane queue are
// full must still deliver every accepted flow to the sink exactly once —
// the LookUp→Write handoff backpressures instead of dropping, and lane
// queues close before the write queue does.
func TestDrainFullLanesDeliversEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSplit = 4
	cfg.QueueCap = 64 // 16 per lane, 64 in the write queue
	cfg.WriteBatchSize = 4
	cfg.LookUpWorkers = 4
	sink := &gatedSink{flowCounter: newFlowCounter(), gate: make(chan struct{})}
	c := New(cfg, WithSink(sink))
	for i := 0; i < 200; i++ {
		ingest(c, aRec(t0, fmt.Sprintf("svc%d.example", i),
			netip.AddrFrom4([4]byte{198, 51, 100, byte(i%200 + 1)}).String(), 300))
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	// The sink holds the Write workers, so the write queue fills, the
	// LookUp workers block in the handoff, and then the lanes fill.
	accepted := 0
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		fr := laneFlow(t0.Add(time.Second),
			netip.AddrFrom4([4]byte{198, 51, 100, byte(i%200 + 1)}).String(),
			netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)}).String(), 1)
		if offerFlow(c, fr) {
			accepted++
		}
		if _, look, write := c.QueueDepths(); look == cfg.QueueCap && write == cfg.QueueCap {
			break
		}
		if time.Now().After(deadline) {
			fill, look, write := c.QueueDepths()
			t.Fatalf("queues never filled: depths %d/%d/%d after %d accepted", fill, look, write, accepted)
		}
	}
	if accepted <= 2*cfg.QueueCap {
		t.Fatalf("accepted %d, want more than the lanes and the write queue hold (%d)", accepted, 2*cfg.QueueCap)
	}
	cancel()
	close(sink.gate)
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}

	st := c.Stats()
	if st.Written != uint64(accepted) {
		t.Fatalf("written %d != accepted %d (drain dropped records)", st.Written, accepted)
	}
	total := uint64(0)
	for _, n := range sink.Flows() {
		total += n
	}
	if total != uint64(accepted) {
		t.Fatalf("sink saw %d flows, accepted %d (duplicate or dropped delivery)", total, accepted)
	}
	if st.WriteQueue.Dropped != 0 {
		t.Fatalf("write queue dropped %d during drain", st.WriteQueue.Dropped)
	}
}

// TestLanesDestinationLookup exercises the aligned mode: lookups keyed by
// destination hit the splits the flow's own lane owns.
func TestLanesDestinationLookup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSplit = 8
	cfg.Key = LookupDestination
	c := New(cfg)
	for i := 0; i < 64; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		ingest(c, aRec(t0, fmt.Sprintf("dst%d.example", i), dst.String(), 300))
	}
	for i := 0; i < 64; i++ {
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
		cf := correlate(c, laneFlow(t0.Add(time.Second), "198.51.100.1", dst.String(), 10))
		if cf.Name != fmt.Sprintf("dst%d.example", i) {
			t.Fatalf("dst lookup %d = %+v", i, cf)
		}
	}
}

// TestIngestDNSUnparsableAnswer pins the §3.2 filter extension: an A
// record whose answer is not an IP address is rejected as invalid rather
// than stored under a key no flow can ever produce.
func TestIngestDNSUnparsableAnswer(t *testing.T) {
	c := New(DefaultConfig())
	ingest(c, aRec(t0, "weird.example", "not-an-ip", 300))
	st := c.Stats()
	if st.DNSInvalid != 1 || st.DNSRecords != 0 {
		t.Fatalf("invalid=%d records=%d, want 1/0", st.DNSInvalid, st.DNSRecords)
	}
	if n, _ := c.StoreSizes(); n != 0 {
		t.Fatalf("ipName entries = %d, want 0", n)
	}
}
