// End-to-end query-plane verification: sealed rollup windows persisted
// through the winstore must answer /query/services over real HTTP with
// exactly the per-service totals the ground-truth counting sink observed —
// and a process "restart" (fresh store opened on the same directory, second
// HTTP server) must return the byte-identical response from disk alone.
// Runs under -race in CI.
package repro

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/stream"
	"repro/internal/winstore"
	"repro/internal/workload"
)

// queryWire mirrors the /query/* response shape for decoding.
type queryWire struct {
	Dimension string `json:"dimension"`
	From      int64  `json:"from"`
	To        int64  `json:"to"`
	StepSecs  int64  `json:"step_secs"`
	Buckets   []struct {
		Start  int64 `json:"start"`
		Series []struct {
			Key     string `json:"key"`
			Bytes   uint64 `json:"bytes"`
			Packets uint64 `json:"packets"`
			Flows   uint64 `json:"flows"`
		} `json:"series"`
	} `json:"buckets"`
}

// serveQuery runs a queryapi server over store on a fresh loopback listener
// and returns its base URL plus a shutdown func that waits for Serve.
func serveQuery(t *testing.T, store *winstore.Store) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := queryapi.New(store, queryapi.WithListener(ln))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	url := "http://" + srv.Addr()
	return url, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("query server: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("query server did not shut down")
		}
	}
}

// httpGet fetches url and returns the body, requiring a 200.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestQueryPlaneEndToEnd drives generated flows through the deployment
// wiring — workload generator → NetFlow v9 over a real UDP socket → 8
// correlation lanes → MultiSink fanning out to the counting sink and a
// rollup sink with short windows whose seals persist into a winstore — then
// asserts /query/services over HTTP reproduces the counting sink's
// per-service byte and flow totals exactly, and that a restart (fresh
// winstore.Open on the same directory behind a second server) answers the
// same query byte-identically from disk.
func TestQueryPlaneEndToEnd(t *testing.T) {
	nfConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if uc, ok := nfConn.(*net.UDPConn); ok {
		uc.SetReadBuffer(4 << 20)
	}

	u := workload.NewUniverse(workload.DefaultConfig())
	table, err := u.BGPTable()
	if err != nil {
		t.Fatal(err)
	}
	table.Freeze()

	dir := t.TempDir()
	const partDur = 15 * time.Second
	store, err := winstore.Open(winstore.Config{Dir: dir, PartDur: partDur})
	if err != nil {
		t.Fatal(err)
	}

	counting := newFlowCounter()
	// Short 10s windows over a ~20s flow span: several seals, two
	// store partitions.
	engine := rollup.New(10*time.Second, 8)
	rsink := rollup.NewSink(engine,
		rollup.WithTable(table),
		rollup.WithBlocklist(u.Blocklist),
		rollup.WithOnSeal(func(ws []rollup.Window) {
			if err := store.Add(ws); err != nil {
				t.Errorf("store.Add: %v", err)
			}
		}))

	cfg := core.DefaultConfig()
	cfg.NumSplit = 8
	c := core.New(cfg,
		core.WithSink(core.MultiSink{counting, rsink}),
		core.WithSources(stream.NewFlowUDPSource(nfConn)),
	)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- c.Run(ctx) }()

	g := workload.NewGenerator(u, 99)
	base := time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)
	dns := g.DNSBatch(base, 4000)
	if got := c.OfferDNSBatch(dns); got != len(dns) {
		t.Fatalf("DNS batch: offered %d, accepted %d", len(dns), got)
	}
	deadline := time.After(30 * time.Second)
	for {
		if st := c.Stats(); st.DNSRecords+st.DNSInvalid == uint64(len(dns)) {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("fills stuck: %+v", c.Stats())
		case <-time.After(time.Millisecond):
		}
	}

	udp, err := net.Dial("udp", nfConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	nfSink := stream.NewFlowUDPSink(udp, 7, 10)
	const wantFlows = 40_000
	const maxLag = 1024
	sent := 0
	waitProcessed := func(target uint64) {
		deadline := time.After(60 * time.Second)
		for c.Stats().Flows < target {
			select {
			case <-deadline:
				t.Fatalf("flows stuck at %d of %d: %+v", c.Stats().Flows, sent, c.Stats())
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	for batch := 0; sent < wantFlows; batch++ {
		ts := base.Add(time.Duration(batch) * time.Second)
		for _, fr := range g.FlowBatch(ts, 2000) {
			if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
				continue // the v9 standard template here is IPv4
			}
			if err := nfSink.Send(fr); err != nil {
				t.Fatal(err)
			}
			sent++
			if sent%256 == 0 {
				if err := nfSink.Flush(); err != nil {
					t.Fatal(err)
				}
				if sent > maxLag {
					waitProcessed(uint64(sent - maxLag))
				}
			}
		}
	}
	if err := nfSink.Flush(); err != nil {
		t.Fatal(err)
	}
	waitProcessed(uint64(sent))

	udp.Close()
	cancel() // drain: rsink.Close seals every window → OnSeal → store.Add
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	if st := c.Stats(); st.Written != uint64(sent) {
		t.Fatalf("written %d != sent %d", st.Written, sent)
	}

	sstats := store.Stats()
	if sstats.Partitions < 2 || sstats.Windows == 0 {
		t.Fatalf("store did not partition the run: %+v", sstats)
	}
	if sstats.WriteErrors != 0 {
		t.Fatalf("store write errors: %+v", sstats)
	}

	// Query the live store over real HTTP: defaults cover the whole span in
	// one bucket; no top cutoff, so every service appears.
	const q = "/query/services"
	url1, stop1 := serveQuery(t, store)
	body1 := httpGet(t, url1+q)
	stop1()

	var resp queryWire
	if err := json.Unmarshal(body1, &resp); err != nil {
		t.Fatalf("decode %s: %v", q, err)
	}
	if resp.Dimension != "services" || len(resp.Buckets) == 0 {
		t.Fatalf("unexpected response shape: %+v", resp)
	}
	gotBytes := make(map[string]uint64)
	gotFlows := make(map[string]uint64)
	var totalFlows uint64
	for _, b := range resp.Buckets {
		for _, s := range b.Series {
			key := s.Key
			if key == "NULL" {
				key = "" // the query plane spells uncorrelated traffic NULL
			}
			gotBytes[key] += s.Bytes
			gotFlows[key] += s.Flows
			totalFlows += s.Flows
		}
	}
	if want := counting.Bytes(); !reflect.DeepEqual(gotBytes, want) {
		t.Fatalf("per-service bytes diverge: query %d services, counting %d", len(gotBytes), len(want))
	}
	if want := counting.Flows(); !reflect.DeepEqual(gotFlows, want) {
		t.Fatalf("per-service flows diverge: query %d services, counting %d", len(gotFlows), len(want))
	}
	if totalFlows != uint64(sent) {
		t.Fatalf("query total flows = %d, want %d", totalFlows, sent)
	}

	// Restart: everything the query plane served must live on disk. A fresh
	// store over the same directory behind a second server answers the same
	// query byte-for-byte.
	if err := store.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	store2, err := winstore.Open(winstore.Config{Dir: dir, PartDur: partDur})
	if err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.LoadErrors != 0 {
		t.Fatalf("reopen load errors: %+v", st)
	}
	url2, stop2 := serveQuery(t, store2)
	body2 := httpGet(t, url2+q)
	stop2()
	if string(body1) != string(body2) {
		t.Fatalf("restart answer diverges:\nlive: %s\ndisk: %s", body1, body2)
	}
	if err := store2.Close(); err != nil {
		t.Fatalf("store2.Close: %v", err)
	}
}
