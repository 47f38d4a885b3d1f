// Command flowgen emits the synthetic ISP streams against a running FlowDNS
// collector: DNS responses as length-prefixed messages over TCP and NetFlow
// v9 exports over UDP.
//
// Pair it with cmd/flowdns to reproduce the paper's deployment topology on
// loopback:
//
//	flowdns -dns-listen :5353 -netflow-listen :2055 -out corr.tsv &
//	flowgen -dns 127.0.0.1:5353 -netflow 127.0.0.1:2055 \
//	        -dns-rate 500 -flow-rate 5000 -duration 30s
//
// Rates are records per second; the generator follows the paper's diurnal
// curve when -diurnal is set (one simulated day per -day-period).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dnswire"
	"repro/internal/stream"
	"repro/internal/workload"
)

func parseAddr(s string) (netip.Addr, error) { return netip.ParseAddr(s) }

func main() {
	var (
		dnsAddr   = flag.String("dns", "127.0.0.1:5353", "FlowDNS DNS TCP address")
		nfAddr    = flag.String("netflow", "127.0.0.1:2055", "FlowDNS NetFlow UDP address")
		dnsRate   = flag.Int("dns-rate", 200, "DNS query events per second")
		flowRate  = flag.Int("flow-rate", 2000, "flow records per second")
		duration  = flag.Duration("duration", 10*time.Second, "how long to emit")
		seed      = flag.Int64("seed", 1, "generator seed")
		services  = flag.Int("services", 4000, "service universe size")
		diurnal   = flag.Bool("diurnal", false, "scale rates by the diurnal curve")
		dayPeriod = flag.Duration("day-period", 24*time.Minute, "wall time of one simulated day when -diurnal")
	)
	flag.Parse()

	ucfg := workload.DefaultConfig()
	ucfg.NumServices = *services
	u := workload.NewUniverse(ucfg)
	g := workload.NewGenerator(u, *seed)

	dnsConn, err := net.Dial("tcp", *dnsAddr)
	if err != nil {
		log.Fatalf("flowgen: dns dial: %v", err)
	}
	defer dnsConn.Close()
	dnsSink := stream.NewDNSTCPSink(dnsConn)

	nfConn, err := net.Dial("udp", *nfAddr)
	if err != nil {
		log.Fatalf("flowgen: netflow dial: %v", err)
	}
	defer nfConn.Close()
	nfSink := stream.NewFlowUDPSink(nfConn, 1, 20)

	// SIGINT/SIGTERM ends the emission early but cleanly (final flush).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("flowgen: emitting %d dns/s + %d flows/s for %v", *dnsRate, *flowRate, *duration)
	start := time.Now()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	var sentDNS, sentFlows, unencodable int
emit:
	for {
		var now time.Time
		select {
		case <-ctx.Done():
			break emit
		case now = <-ticker.C:
		}
		if now.Sub(start) > *duration {
			break
		}
		mult := 1.0
		ts := now
		if *diurnal {
			frac := now.Sub(start).Seconds() / dayPeriod.Seconds()
			hour := 24 * (frac - float64(int(frac)))
			mult = workload.DiurnalMultiplier(hour)
			// Stretch the record clock so the correlator's clear-up
			// intervals see a full simulated day.
			ts = start.Add(time.Duration(float64(24*time.Hour) * frac))
		}
		nDNS := int(float64(*dnsRate) * mult / 10)
		nFlows := int(float64(*flowRate) * mult / 10)
		for i := 0; i < nDNS; i++ {
			msg := toMessage(g.DNSQueryEvent(ts))
			if msg == nil {
				continue
			}
			if err := dnsSink.Send(msg); err != nil {
				// The generator's malformed-domain population includes
				// labels longer than the wire format allows: such an event
				// cannot be sent, and the sink wrote nothing for it.
				if errors.Is(err, dnswire.ErrLabelTooLong) {
					unencodable++
					continue
				}
				log.Fatalf("flowgen: dns send: %v", err)
			}
			sentDNS++
		}
		for _, fr := range g.FlowBatch(ts, nFlows) {
			if !fr.SrcIP.Is4() || !fr.DstIP.Is4() {
				continue // the standard v9 template is IPv4
			}
			if err := nfSink.Send(fr); err != nil {
				log.Fatalf("flowgen: netflow send: %v", err)
			}
			sentFlows++
		}
		if err := nfSink.Flush(); err != nil {
			log.Fatalf("flowgen: netflow flush: %v", err)
		}
	}
	log.Printf("flowgen: done; %d DNS query events, %d flow records, %d DNS events skipped as unencodable",
		sentDNS, sentFlows, unencodable)
}

// toMessage re-assembles the flattened records of one query event into a
// DNS response message for the wire.
func toMessage(recs []stream.DNSRecord) *dnswire.Message {
	if len(recs) == 0 {
		return nil
	}
	m := &dnswire.Message{
		Header: dnswire.Header{Response: true, RecursionDesired: true, RecursionAvailable: true},
	}
	m.Questions = []dnswire.Question{{Name: recs[0].Query, Type: dnswire.TypeA, Class: dnswire.ClassIN}}
	for _, rec := range recs {
		r := dnswire.Record{Name: rec.Query, Type: rec.RType, Class: dnswire.ClassIN, TTL: rec.TTL}
		switch rec.RType {
		case dnswire.TypeCNAME:
			r.Target = rec.Answer
		default:
			r.Addr = rec.Addr
			if !r.Addr.IsValid() {
				addr, err := parseAddr(rec.Answer)
				if err != nil {
					continue
				}
				r.Addr = addr
			}
		}
		m.Answers = append(m.Answers, r)
	}
	if len(m.Answers) == 0 {
		return nil
	}
	return m
}
