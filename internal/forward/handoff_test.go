package forward

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// fillCorrelator seeds a correlator with n CNAME-chained services and
// returns their addresses.
func fillCorrelator(c *core.Correlator, n int) []netip.Addr {
	now := time.Now()
	addrs := make([]netip.Addr, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("svc%03d.example", i)
		edge := fmt.Sprintf("edge%03d.cdn.example", i)
		addr := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		addrs[i] = addr
		c.IngestDNSBatch([]stream.DNSRecord{
			{Timestamp: now, Query: name, RType: dnswire.TypeCNAME, TTL: 600, Answer: edge},
			{Timestamp: now, Query: edge, RType: dnswire.TypeA, TTL: 600, Addr: addr},
		})
	}
	return addrs
}

func lookupName(c *core.Correlator, addr netip.Addr) string {
	out := c.CorrelateBatch(nil, []netflow.FlowRecord{{
		Timestamp: time.Now(), SrcIP: addr,
		DstIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), Bytes: 1,
	}})
	return out[0].Name
}

// TestHandoffPush drives a full rebalance step over HTTP: node w1 holds
// the whole key space, the ring grows to {w1, w2}, and a push handoff
// moves exactly w2's range to the new node — after which each address
// resolves on its ring owner and ONLY there, with no entry lost and no
// entry duplicated across the IP-NAME split.
func TestHandoffPush(t *testing.T) {
	old := core.New(core.DefaultConfig())
	neu := core.New(core.DefaultConfig())
	addrs := fillCorrelator(old, 512)

	oldSrv := httptest.NewServer(NewHandoff(old).Handler())
	defer oldSrv.Close()
	neuSrv := httptest.NewServer(NewHandoff(neu).Handler())
	defer neuSrv.Close()

	ring, err := NewRing([]string{"w1", "w2"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	before := old.Stats().IPNameEntries
	resp, err := http.Post(oldSrv.URL+"/admin/handoff?nodes=w1,w2&node=w2&to="+neuSrv.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s", resp.Status)
	}
	resp.Body.Close()

	// Placement after the handoff: each address answers on its owner and
	// misses on the other node — the drain really removed the old copy.
	movedSeen := 0
	for i, addr := range addrs {
		name := fmt.Sprintf("svc%03d.example", i)
		owner := ring.Nodes()[ring.Owner(core.IPHashAddr(addr))]
		onOld, onNew := lookupName(old, addr), lookupName(neu, addr)
		switch owner {
		case "w1":
			if onOld != name || onNew != "" {
				t.Fatalf("addr %s (owner w1): old=%q new=%q", addr, onOld, onNew)
			}
		case "w2":
			movedSeen++
			if onNew != name || onOld != "" {
				t.Fatalf("addr %s (owner w2): old=%q new=%q", addr, onOld, onNew)
			}
		}
	}
	if movedSeen == 0 {
		t.Fatal("ring change moved nothing; test proves nothing")
	}

	// Conservation across the IP-NAME split: entries moved, none created
	// or destroyed. (Both sides also hold the full CNAME family — the old
	// node kept it, the import brought it to the new one.)
	afterOld, afterNew := old.Stats().IPNameEntries, neu.Stats().IPNameEntries
	if afterOld+afterNew != before {
		t.Fatalf("entries not conserved: %d -> %d + %d", before, afterOld, afterNew)
	}
	if neu.Stats().NameCnameEntries != old.Stats().NameCnameEntries {
		t.Fatalf("CNAME family not replicated: old=%d new=%d",
			old.Stats().NameCnameEntries, neu.Stats().NameCnameEntries)
	}
}

// TestHandoffExportImport exercises the two-step form (pull a drained
// export, apply it) and the validation failures around it.
func TestHandoffExportImport(t *testing.T) {
	old := core.New(core.DefaultConfig())
	neu := core.New(core.DefaultConfig())
	fillCorrelator(old, 128)

	oldSrv := httptest.NewServer(NewHandoff(old).Handler())
	defer oldSrv.Close()
	neuSrv := httptest.NewServer(NewHandoff(neu).Handler())
	defer neuSrv.Close()

	before := old.Stats().IPNameEntries
	resp, err := http.Get(oldSrv.URL + "/admin/handoff/export?nodes=w1,w2&node=w2&drain=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	imp, err := http.Post(neuSrv.URL+"/admin/handoff/import", "application/octet-stream", resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	imp.Body.Close()
	if imp.StatusCode != http.StatusOK {
		t.Fatalf("import: %s", imp.Status)
	}
	if got := old.Stats().IPNameEntries + neu.Stats().IPNameEntries; got != before {
		t.Fatalf("entries not conserved: %d -> %d", before, got)
	}
	if neu.Stats().IPNameEntries == 0 {
		t.Fatal("import landed nothing")
	}

	for _, bad := range []string{
		"/admin/handoff/export",                           // no ring spec
		"/admin/handoff/export?nodes=w1&node=w9",          // node not a member
		"/admin/handoff/export?nodes=w1&node=w1&vnodes=x", // bad vnodes
	} {
		r, err := http.Get(oldSrv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %s, want 400", bad, r.Status)
		}
	}
	// Garbage import must be rejected, not half-applied silently.
	r, err := http.Post(neuSrv.URL+"/admin/handoff/import", "application/octet-stream",
		strings.NewReader("this is not a snapshot stream"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage import = %s, want 400", r.Status)
	}
}
