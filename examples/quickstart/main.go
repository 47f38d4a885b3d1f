// Quickstart: the minimal FlowDNS loop.
//
// Build a correlator, feed it DNS records (what the ISP resolvers forward)
// and flow records (what the routers export), and read back which service
// each flow belongs to — including walking a CDN's CNAME chain back to the
// original service name.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dnswire"
	"repro/internal/netflow"
	"repro/internal/stream"
)

func main() {
	now := time.Now()

	// A correlator with the paper's defaults (10 splits, 1h/2h clear-up,
	// chain limit 6) writing TSV rows to stdout.
	sink := core.NewTSVSink(os.Stdout)
	c := core.New(core.DefaultConfig(), core.WithSink(sink))

	// The DNS stream saw a client resolve a CDN-hosted video service:
	//   video.example.com CNAME edge7.cdn-west.net
	//   edge7.cdn-west.net A 198.51.100.7
	c.IngestDNSBatch([]stream.DNSRecord{{
		Timestamp: now, Query: "video.example.com",
		RType: dnswire.TypeCNAME, TTL: 300, Answer: "edge7.cdn-west.net",
	}, {
		Timestamp: now, Query: "edge7.cdn-west.net",
		RType: dnswire.TypeA, TTL: 60, Answer: "198.51.100.7",
	}})

	// The NetFlow stream then saw 40 MB flow from that edge IP to a
	// subscriber. Whose traffic is it?
	out := c.CorrelateBatch(nil, []netflow.FlowRecord{{
		Timestamp: now.Add(2 * time.Second),
		SrcIP:     netip.MustParseAddr("198.51.100.7"),
		DstIP:     netip.MustParseAddr("10.20.30.40"),
		SrcPort:   443, DstPort: 51234, Proto: netflow.ProtoTCP,
		Packets: 28000, Bytes: 40 << 20,
	}})
	sink.WriteBatch(context.Background(), out)
	sink.Flush()
	cf := out[0]

	fmt.Printf("\nresolved service: %s (tier=%s, CNAME hops=%d)\n",
		cf.Name, cf.Tier, cf.ChainLen)

	st := c.Stats()
	fmt.Printf("correlation rate: %.0f%% of %d bytes\n",
		100*st.CorrelationRate(), st.FlowBytes)
}
