package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dbl"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/workload"
)

// dnsPerFlow is the generator's DNS:flow ratio: one query event (a CNAME
// chain plus up to four A/AAAA answers) per ten flow records, the ratio the
// repository's examples and replays use.
const dnsPerFlow = 10

// recsPerDatagram is the number of flow records per NetFlow v9 datagram,
// inside the 20-30 an exporter typically packs.
const recsPerDatagram = 25

// Byte layout of the datagrams netflow.AppendV9 builds under the standard
// templates: a 20-byte header, a 40-byte template FlowSet, a 4-byte data
// FlowSet header, then fixed-length records that end in the 8-byte
// FlowStartMs field.
const (
	v9DataOff = 20 + 40 + 4
	v4RecLen  = 37
	v6RecLen  = 61
)

// inputs is the universe every workload draws from and the seeded
// generator of its traffic. The universe (services, CNAME chains, address
// plan, blocklist) stays the default one, like a fixed dataset; the seed
// picks the traffic drawn from it. With the universe seeded too, which
// services lead the Zipf head, and so their chain lengths, moved the cost
// per flow between seeds by more than the bounds allow.
type inputs struct {
	u     *workload.Universe
	g     *workload.Generator
	table *bgp.Table
	list  *dbl.List
}

func newInputs(seed int64) (*inputs, error) {
	u := workload.NewUniverse(workload.DefaultConfig())
	table, err := u.BGPTable()
	if err != nil {
		return nil, err
	}
	table.Freeze()
	return &inputs{u: u, g: workload.NewGenerator(u, seed), table: table, list: u.Blocklist}, nil
}

// writeTables writes the universe's prefix→ASN table and DBL blocklist in
// the text formats the daemon's -bgp-table and -dbl flags read.
func (in *inputs) writeTables(dir string) (bgpPath, dblPath string, err error) {
	bgpPath, dblPath = filepath.Join(dir, "bgp.txt"), filepath.Join(dir, "dbl.txt")
	write := func(path string, fill func(w *bufio.Writer)) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		fill(w)
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	err = write(bgpPath, func(w *bufio.Writer) {
		for _, a := range in.u.Assignments() {
			fmt.Fprintf(w, "%s %d\n", a.Prefix, a.ASN)
		}
	})
	if err != nil {
		return "", "", err
	}
	err = write(dblPath, func(w *bufio.Writer) {
		for _, s := range in.u.Services {
			if s.Category != dbl.Benign {
				fmt.Fprintf(w, "%s %s\n", s.Name, s.Category)
			}
		}
	})
	return bgpPath, dblPath, err
}

// toMessage re-assembles the flattened records of one query event into a
// DNS response, as an ISP resolver would send it.
func toMessage(recs []stream.DNSRecord) *dnswire.Message {
	if len(recs) == 0 {
		return nil
	}
	m := &dnswire.Message{
		Header:    dnswire.Header{Response: true, RecursionDesired: true, RecursionAvailable: true},
		Questions: []dnswire.Question{{Name: recs[0].Query, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
	}
	for _, rec := range recs {
		r := dnswire.Record{Name: rec.Query, Type: rec.RType, Class: dnswire.ClassIN, TTL: rec.TTL}
		if rec.RType == dnswire.TypeCNAME {
			r.Target = rec.Answer
		} else {
			r.Addr = rec.Addr
		}
		m.Answers = append(m.Answers, r)
	}
	return m
}

// datagram is one pre-encoded NetFlow v9 export packet of a wire plan.
type datagram struct {
	off, n uint32 // byte range in wirePlan.pkts
	tick   uint32 // schedule slot
	first  uint32 // sequence number of its first flow
	count  uint16
	v6     bool
}

// flowInfo is what the benchmark remembers about one sent flow, indexed by
// its sequence number (carried in the record's packet counter).
type flowInfo struct {
	bytes uint64
	asn   uint32
	dg    uint32
}

// wirePlan is a fully pre-encoded open-loop input: datagrams and DNS
// frames per schedule tick. The byte slices hold no pointers, so the
// garbage collector does not scan them while the run is measured.
type wirePlan struct {
	rate  int           // flows per second
	tick  time.Duration // schedule slot length
	ticks int

	pkts     []byte
	dgs      []datagram
	dgByTick []uint32 // first datagram of tick i; len ticks+1

	dns       []byte   // length-prefixed DNS responses
	dnsByTick []uint32 // byte offset of tick i's frames; len ticks+1

	flows []flowInfo

	dnsEvents, dnsUnencodable int
	warm                      []stream.DNSRecord // resolutions before the run, for the warm checkpoint
}

// buildWirePlan pre-encodes dur of traffic at rate flows/s in ticks of
// tick, preceded by warm of DNS-only history. Timestamps are offsets from
// start; the sender patches the real due time into every record.
func (in *inputs) buildWirePlan(start time.Time, rate int, tick, dur, warm time.Duration) (*wirePlan, error) {
	p := &wirePlan{rate: rate, tick: tick, ticks: int(dur / tick)}
	perTick := int(float64(rate) * tick.Seconds())
	if perTick < 1 {
		return nil, fmt.Errorf("rate %d too low for tick %v", rate, tick)
	}
	eventsPerTick := perTick / dnsPerFlow
	warmEvents := int(warm.Seconds() * float64(rate) / dnsPerFlow)
	for i := 0; i < warmEvents; i++ {
		ts := start.Add(-warm + time.Duration(i)*warm/time.Duration(warmEvents))
		p.warm = append(p.warm, in.g.DNSQueryEvent(ts)...)
	}
	v4, v6 := netflow.StandardTemplate(), netflow.StandardTemplateV6()
	placeholder := time.UnixMilli(1)
	var g4, g6 []netflow.FlowRecord
	var msg []byte
	p.pkts = make([]byte, 0, p.ticks*perTick*45)
	emit := func(tick int, recs []netflow.FlowRecord, v6rec bool) error {
		for len(recs) > 0 {
			n := min(len(recs), recsPerDatagram)
			chunk := recs[:n]
			recs = recs[n:]
			dg := datagram{off: uint32(len(p.pkts)), tick: uint32(tick), first: uint32(len(p.flows)), count: uint16(n), v6: v6rec}
			for i := range chunk {
				chunk[i].Packets = uint64(len(p.flows)) + 1
				chunk[i].Timestamp = placeholder
				// The v6 template carries an IPv4 address as ::ffff:a.b.c.d,
				// which is the form the daemon attributes.
				src := chunk[i].SrcIP
				if v6rec {
					src = netip.AddrFrom16(src.As16())
				}
				asn, _ := in.table.Lookup(src)
				p.flows = append(p.flows, flowInfo{bytes: chunk[i].Bytes, asn: asn, dg: uint32(len(p.dgs))})
			}
			tmpl := v4
			if v6rec {
				tmpl = v6
			}
			var err error
			p.pkts, err = netflow.AppendV9(p.pkts, netflow.V9Header{SequenceNum: uint32(len(p.dgs)) + 1, SourceID: 1}, tmpl, chunk)
			if err != nil {
				return err
			}
			dg.n = uint32(len(p.pkts)) - dg.off
			p.dgs = append(p.dgs, dg)
		}
		return nil
	}
	for t := 0; t < p.ticks; t++ {
		ts := start.Add(time.Duration(t) * tick)
		p.dgByTick = append(p.dgByTick, uint32(len(p.dgs)))
		p.dnsByTick = append(p.dnsByTick, uint32(len(p.dns)))
		for e := 0; e < eventsPerTick; e++ {
			m := toMessage(in.g.DNSQueryEvent(ts))
			if m == nil {
				continue
			}
			p.dnsEvents++
			var err error
			if msg, err = dnswire.AppendMessage(msg[:0], m); err != nil || len(msg) > 0xFFFF {
				// The generator's malformed names include labels longer
				// than 63 bytes, which the wire format cannot carry.
				p.dnsUnencodable++
				continue
			}
			p.dns = binary.BigEndian.AppendUint16(p.dns, uint16(len(msg)))
			p.dns = append(p.dns, msg...)
		}
		g4, g6 = g4[:0], g6[:0]
		for _, fr := range in.g.FlowBatch(ts, perTick) {
			if fr.SrcIP.Is4() && fr.DstIP.Is4() {
				g4 = append(g4, fr)
			} else {
				g6 = append(g6, fr)
			}
		}
		if err := emit(t, g4, false); err != nil {
			return nil, err
		}
		if err := emit(t, g6, true); err != nil {
			return nil, err
		}
	}
	p.dgByTick = append(p.dgByTick, uint32(len(p.dgs)))
	p.dnsByTick = append(p.dnsByTick, uint32(len(p.dns)))
	return p, nil
}

// packet returns datagram i's bytes.
func (p *wirePlan) packet(i int) []byte {
	dg := &p.dgs[i]
	return p.pkts[dg.off : dg.off+dg.n]
}

// stampDatagram writes the due time (Unix ms) into the header and every
// record of a datagram: record time equals wall time.
func stampDatagram(pkt []byte, dg *datagram, unixMs int64) {
	binary.BigEndian.PutUint32(pkt[8:], uint32(unixMs/1000))
	rl := v4RecLen
	if dg.v6 {
		rl = v6RecLen
	}
	for i := 0; i < int(dg.count); i++ {
		binary.BigEndian.PutUint64(pkt[v9DataOff+i*rl+rl-8:], uint64(unixMs))
	}
}

// writeCheckpoint fills a correlator with recs and checkpoints it to path:
// the warm state the daemon restores at boot.
func writeCheckpoint(path string, recs []stream.DNSRecord) error {
	c := core.New(core.DefaultConfig())
	c.IngestDNSBatch(recs)
	return c.Checkpoint(path)
}

// historyWindows synthesizes hours of sealed rollup windows (window length
// win) ending at end, from a generator of its own (seeded from seed)
// correlated through a synchronous correlator and the rollup sink with the
// daemon's attribution. With the live generator, how many history
// announcements were still recent at the run's start would depend on the
// wall-clock minute, and with it the correlation rate.
func (in *inputs) historyWindows(seed int64, end time.Time, hours int, win time.Duration, flowsPerWindow int) ([]rollup.Window, error) {
	var windows []rollup.Window
	sink := rollup.NewSink(rollup.New(win, 1),
		rollup.WithTable(in.table), rollup.WithBlocklist(in.list),
		rollup.WithOnSeal(func(ws []rollup.Window) { windows = append(windows, ws...) }))
	c := core.New(core.DefaultConfig())
	g := workload.NewGenerator(in.u, seed)
	steps := int(time.Duration(hours) * time.Hour / win)
	var out []core.CorrelatedFlow
	for s := 0; s < steps; s++ {
		ts := end.Add(-time.Duration(steps-s) * win)
		c.IngestDNSBatch(g.DNSBatch(ts, flowsPerWindow/dnsPerFlow))
		out = c.CorrelateBatch(out[:0], g.FlowBatch(ts, flowsPerWindow))
		if err := sink.WriteBatch(context.Background(), out); err != nil {
			return nil, err
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	return windows, nil
}

// cflow is a pointer-free flow record, so a large pre-generated replay
// input costs the garbage collector nothing to hold.
type cflow struct {
	src, dst       [16]byte
	ts             int64
	bytes, packets uint64
	sport, dport   uint16
	proto          uint8
	src4, dst4     bool
}

// cdns is a pointer-free DNS record; names index replayInput.names.
type cdns struct {
	ts            int64
	addr          [16]byte
	query, answer uint32
	ttl           uint32
	rtype         dnswire.Type
	addr4, hasIP  bool
}

// replayInput is replay-saturate's pre-generated closed-loop input.
type replayInput struct {
	names     []string
	flows     []cflow
	dns       []cdns
	stepFlows []uint32 // prefix offsets into flows; len steps+1
	stepDNS   []uint32 // prefix offsets into dns; len steps+1
}

func (r *replayInput) steps() int { return len(r.stepFlows) - 1 }

// buildReplay generates steps of stepLen record time, each with events DNS
// query events and flows flow records.
func (in *inputs) buildReplay(start time.Time, steps int, stepLen time.Duration, events, flows int) *replayInput {
	r := &replayInput{names: []string{""}}
	ids := map[string]uint32{"": 0}
	id := func(s string) uint32 {
		v, ok := ids[s]
		if !ok {
			v = uint32(len(r.names))
			ids[s] = v
			r.names = append(r.names, s)
		}
		return v
	}
	for s := 0; s < steps; s++ {
		ts := start.Add(time.Duration(s) * stepLen)
		r.stepFlows = append(r.stepFlows, uint32(len(r.flows)))
		r.stepDNS = append(r.stepDNS, uint32(len(r.dns)))
		for _, d := range in.g.DNSBatch(ts, events) {
			cd := cdns{ts: d.Timestamp.UnixNano(), query: id(d.Query), answer: id(d.Answer), ttl: d.TTL, rtype: d.RType}
			if d.Addr.IsValid() {
				cd.addr, cd.addr4, cd.hasIP = d.Addr.As16(), d.Addr.Is4(), true
			}
			r.dns = append(r.dns, cd)
		}
		for _, f := range in.g.FlowBatch(ts, flows) {
			r.flows = append(r.flows, cflow{
				src: f.SrcIP.As16(), dst: f.DstIP.As16(), src4: f.SrcIP.Is4(), dst4: f.DstIP.Is4(),
				ts: f.Timestamp.UnixNano(), bytes: f.Bytes, packets: f.Packets,
				sport: f.SrcPort, dport: f.DstPort, proto: f.Proto,
			})
		}
	}
	r.stepFlows = append(r.stepFlows, uint32(len(r.flows)))
	r.stepDNS = append(r.stepDNS, uint32(len(r.dns)))
	return r
}

func addrOf(b [16]byte, is4 bool) netip.Addr {
	if is4 {
		return netip.AddrFrom4([4]byte(b[12:]))
	}
	return netip.AddrFrom16(b)
}

// stepFlowRecords expands step s's flows into dst.
func (r *replayInput) stepFlowRecords(dst []netflow.FlowRecord, s int) []netflow.FlowRecord {
	dst = dst[:0]
	for _, f := range r.flows[r.stepFlows[s]:r.stepFlows[s+1]] {
		dst = append(dst, netflow.FlowRecord{
			Timestamp: time.Unix(0, f.ts).UTC(),
			SrcIP:     addrOf(f.src, f.src4), DstIP: addrOf(f.dst, f.dst4),
			SrcPort: f.sport, DstPort: f.dport, Proto: f.proto,
			Packets: f.packets, Bytes: f.bytes,
		})
	}
	return dst
}

// stepDNSRecords expands step s's DNS records into dst.
func (r *replayInput) stepDNSRecords(dst []stream.DNSRecord, s int) []stream.DNSRecord {
	dst = dst[:0]
	for _, d := range r.dns[r.stepDNS[s]:r.stepDNS[s+1]] {
		rec := stream.DNSRecord{
			Timestamp: time.Unix(0, d.ts).UTC(),
			Query:     r.names[d.query], RType: d.rtype, TTL: d.ttl, Answer: r.names[d.answer],
		}
		if d.hasIP {
			rec.Addr = addrOf(d.addr, d.addr4)
		}
		dst = append(dst, rec)
	}
	return dst
}
