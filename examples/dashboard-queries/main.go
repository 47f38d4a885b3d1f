// Dashboard queries: the query/serving plane over sealed rollups.
//
// A day of synthetic ISP traffic is correlated through the attributed
// rollup sink; every hourly seal persists into the time-partitioned
// on-disk window store (internal/winstore). The query plane
// (internal/queryapi) then serves dashboard-style time-range aggregations
// over real HTTP — the requests a Grafana-like panel would issue:
//
//	/query/services?step=6h&top=3    traffic per service, 6-hour buckets
//	/query/asns?from=...&to=...      origin-AS mix for one busy evening hour
//	/query/categories                day totals per blocklist category
//	/query/health                    coverage bounds, store + cache stats
//
// Everything the server answers comes from the segment files on disk —
// restart the process over the same directory and the answers are
// identical (the root TestQueryPlaneEndToEnd proves exactly that).
//
//	go run ./examples/dashboard-queries
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/queryapi"
	"repro/internal/rollup"
	"repro/internal/winstore"
	"repro/internal/workload"
)

func main() {
	u := workload.NewUniverse(workload.DefaultConfig())
	g := workload.NewGenerator(u, 42)
	table, err := u.BGPTable()
	if err != nil {
		log.Fatal(err)
	}
	table.Freeze()

	// The store: one segment file per 6-hour partition, so the simulated
	// day lands in four partitions.
	dir, err := os.MkdirTemp("", "flowdns-winstore-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := winstore.Open(winstore.Config{Dir: dir, PartDur: 6 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}

	// Hourly attributed windows; every seal is persisted as it happens —
	// the same OnSeal wiring the daemon uses.
	engine := rollup.New(time.Hour, 4)
	sink := rollup.NewSink(engine,
		rollup.WithTable(table),
		rollup.WithBlocklist(u.Blocklist),
		rollup.WithOnSeal(func(ws []rollup.Window) {
			if err := store.Add(ws); err != nil {
				log.Fatal(err)
			}
		}))

	// Correlate one simulated day, sealing each hour once it is over.
	ctx := context.Background()
	c := core.New(core.DefaultConfig())
	start := time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)
	var out []core.CorrelatedFlow
	for h := 0; h < 24; h++ {
		ts := start.Add(time.Duration(h) * time.Hour)
		mult := workload.DiurnalMultiplier(float64(h))
		c.IngestDNSBatch(g.DNSBatch(ts, int(800*mult)))
		out = c.CorrelateBatch(out[:0], g.FlowBatch(ts, int(8000*mult)))
		if err := sink.WriteBatch(ctx, out); err != nil {
			log.Fatal(err)
		}
		// The daemon's sink rotation does this on the wall clock (through the
		// same OnSeal hook); simulated time seals and persists explicitly.
		if err := store.Add(engine.SealBefore(ts)); err != nil {
			log.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil { // drain: seal and persist the rest
		log.Fatal(err)
	}
	st := store.Stats()
	fmt.Printf("store: %d partitions, %d windows, %d rows, %d bytes on disk at %s\n\n",
		st.Partitions, st.Windows, st.Rows, st.DiskBytes, dir)

	// Serve the query plane on loopback.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := queryapi.New(store, queryapi.WithListener(ln))
	if err != nil {
		log.Fatal(err)
	}
	srvCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(srvCtx) }()
	base := "http://" + srv.Addr()

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	type series struct {
		Key   string `json:"key"`
		Other bool   `json:"other"`
		Bytes uint64 `json:"bytes"`
		Flows uint64 `json:"flows"`
	}
	type response struct {
		Buckets []struct {
			Start  int64    `json:"start"`
			Series []series `json:"series"`
		} `json:"buckets"`
	}
	decode := func(body []byte) response {
		var r response
		if err := json.Unmarshal(body, &r); err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Panel 1: top services across the day, 6-hour buckets. `top=3` folds
	// the long tail into one OTHER series per bucket.
	fmt.Println("top services, 6h buckets (/query/services?step=6h&top=3):")
	for _, b := range decode(get("/query/services?step=6h&top=3")).Buckets {
		fmt.Printf("  %s\n", time.Unix(b.Start, 0).UTC().Format("15:04"))
		for _, s := range b.Series {
			fmt.Printf("    %-28s %14d bytes %8d flows\n", s.Key, s.Bytes, s.Flows)
		}
	}

	// Panel 2: the origin-AS mix during one busy evening hour — the range
	// narrowed with from/to, as a dashboard zoom does.
	evening := start.Add(20 * time.Hour)
	path := fmt.Sprintf("/query/asns?from=%d&to=%d&top=5",
		evening.Unix(), evening.Add(time.Hour).Unix())
	fmt.Printf("\norigin ASes, %s–%s UTC (%s):\n",
		evening.Format("15:04"), evening.Add(time.Hour).Format("15:04"), path)
	for _, b := range decode(get(path)).Buckets {
		for _, s := range b.Series {
			key := s.Key
			if !s.Other {
				key = "AS" + key
			}
			fmt.Printf("    %-10s %14d bytes\n", key, s.Bytes)
		}
	}

	// Panel 3: blocklist-category day totals — the malicious-traffic view.
	fmt.Println("\ncategories, day total (/query/categories):")
	for _, b := range decode(get("/query/categories")).Buckets {
		for _, s := range b.Series {
			fmt.Printf("    %-12s %14d bytes %8d flows\n", s.Key, s.Bytes, s.Flows)
		}
	}

	// Health: coverage bounds plus store and cache counters.
	var health map[string]any
	if err := json.Unmarshal(get("/query/health"), &health); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhealth: status=%v oldest=%v newest=%v\n",
		health["status"], health["oldest"], health["newest"])

	stop()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
}
