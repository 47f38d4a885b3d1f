package stream

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netflow"
)

func TestDNSFileRoundTrip(t *testing.T) {
	recs := []DNSRecord{
		// String-only answer (hand-built), typed-only answer (wire
		// decoder), and a CNAME: the writer formats all three, and the
		// reader hands every A/AAAA back with the address pre-parsed.
		{Timestamp: time.Unix(1653475200, 123), Query: "a.example",
			RType: dnswire.TypeA, TTL: 300, Answer: "198.51.100.1"},
		{Timestamp: time.Unix(1653475201, 0), Query: "svc.example",
			RType: dnswire.TypeCNAME, TTL: 7200, Answer: "edge.cdn.example"},
		{Timestamp: time.Unix(1653475202, 0), Query: "v6.example",
			RType: dnswire.TypeAAAA, TTL: 60, Addr: netip.MustParseAddr("2001:db8::1")},
	}
	var buf bytes.Buffer
	w := NewDNSFileWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDNSFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("records = %d", len(got))
	}
	for i := range recs {
		want := recs[i]
		// The reader always materializes both forms for A/AAAA records:
		// the TSV string it read and the address parsed once at read time.
		if want.Answer == "" {
			want.Answer = want.Addr.String()
		}
		if want.RType != dnswire.TypeCNAME && !want.Addr.IsValid() {
			want.Addr = netip.MustParseAddr(want.Answer)
		}
		if got[i] != want {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want)
		}
		if got[i].RType != dnswire.TypeCNAME && !got[i].Addr.IsValid() {
			t.Fatalf("record %d: reader left address unparsed: %+v", i, got[i])
		}
	}
}

func TestFlowFileRoundTrip(t *testing.T) {
	flows := []netflow.FlowRecord{
		{Timestamp: time.Unix(1653475200, 999), SrcIP: netip.MustParseAddr("198.51.100.1"),
			DstIP: netip.MustParseAddr("10.0.0.1"), SrcPort: 443, DstPort: 50000,
			Proto: netflow.ProtoTCP, Packets: 10, Bytes: 15000},
		{Timestamp: time.Unix(1653475210, 0), SrcIP: netip.MustParseAddr("2001:db8::5"),
			DstIP: netip.MustParseAddr("10.0.0.2"), SrcPort: 443, DstPort: 50001,
			Proto: netflow.ProtoUDP, Packets: 1, Bytes: 80},
	}
	var buf bytes.Buffer
	w := NewFlowFileWriter(&buf)
	for _, fr := range flows {
		if err := w.Write(fr); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	got, err := ReadFlowFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) {
		t.Fatalf("records = %d", len(got))
	}
	for i := range flows {
		if got[i] != flows[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], flows[i])
		}
	}
}

func TestReadDNSFileSkipsCommentsAndBlank(t *testing.T) {
	in := "# capture header\n\n1000\tq.example\t1\t60\t192.0.2.1\n"
	got, err := ReadDNSFile(strings.NewReader(in))
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestReadFilesRejectMalformed(t *testing.T) {
	dnsBad := []string{
		"1000\tq\t1\t60",            // too few fields
		"x\tq\t1\t60\t192.0.2.1",    // bad timestamp
		"1000\tq\tz\t60\t192.0.2.1", // bad rtype
		"1000\tq\t1\tz\t192.0.2.1",  // bad ttl
	}
	for _, line := range dnsBad {
		if _, err := ReadDNSFile(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("dns line %q accepted", line)
		}
	}
	flowBad := []string{
		"1000\t1.2.3.4\t5.6.7.8\t1\t2\t6\t1",     // too few
		"x\t1.2.3.4\t5.6.7.8\t1\t2\t6\t1\t10",    // bad ts
		"1000\tnot-ip\t5.6.7.8\t1\t2\t6\t1\t10",  // bad src
		"1000\t1.2.3.4\tnope\t1\t2\t6\t1\t10",    // bad dst
		"1000\t1.2.3.4\t5.6.7.8\tx\t2\t6\t1\t10", // bad port
	}
	for _, line := range flowBad {
		if _, err := ReadFlowFile(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("flow line %q accepted", line)
		}
	}
}

func TestMergeByTime(t *testing.T) {
	base := time.Unix(1000, 0)
	dns := []DNSRecord{
		{Timestamp: base, Query: "d0"},
		{Timestamp: base.Add(2 * time.Second), Query: "d2"},
	}
	flows := []netflow.FlowRecord{
		{Timestamp: base.Add(time.Second), Bytes: 1},
		{Timestamp: base.Add(3 * time.Second), Bytes: 3},
	}
	var order []string
	MergeByTime(dns, flows,
		func(r []DNSRecord) { order = append(order, "dns:"+r[0].Query) },
		func(f []netflow.FlowRecord) { order = append(order, "flow") })
	want := []string{"dns:d0", "flow", "dns:d2", "flow"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v", order)
	}
}

func TestMergeByTimeTieGoesToDNS(t *testing.T) {
	base := time.Unix(1000, 0)
	var order []string
	MergeByTime(
		[]DNSRecord{{Timestamp: base, Query: "d"}},
		[]netflow.FlowRecord{{Timestamp: base}},
		func([]DNSRecord) { order = append(order, "dns") },
		func([]netflow.FlowRecord) { order = append(order, "flow") })
	// The fill must precede the lookup at equal timestamps, as in the live
	// system where resolution precedes traffic.
	if order[0] != "dns" {
		t.Fatalf("order = %v", order)
	}
}

func TestMergeByTimeEmptyInputs(t *testing.T) {
	calls := 0
	MergeByTime(nil, nil,
		func([]DNSRecord) { calls++ },
		func([]netflow.FlowRecord) { calls++ })
	if calls != 0 {
		t.Fatal("callbacks on empty inputs")
	}
}
