package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// ladderRates are the offered rates of the wire-paced operating-point
// ladder, flows per second.
var ladderRates = []int{50_000, 100_000, 150_000, 200_000, 300_000, 400_000}

// ladderLatencyMs bounds p99 latency at the operating point: a backlog that
// grows during a run shows as latency far beyond the write stage's flush
// linger before any queue overflows.
const ladderLatencyMs = 100

// runLadder runs wire-paced at each ladder rate and reports the highest
// rate with no end-to-end loss and p99 latency within ladderLatencyMs. It
// is reported, not gated.
func runLadder(b *bench) error {
	best := 0
	for _, rate := range ladderRates {
		r := &bench{workload: "wire-paced", seed: b.seed, seconds: b.seconds, daemon: b.daemon, dir: filepath.Join(b.dir, fmt.Sprint(rate)), rate: rate}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return err
		}
		r.res.Metrics = make(map[string]metric)
		if err := runWire(r); err != nil {
			return fmt.Errorf("rate %d: %w", rate, err)
		}
		mt := r.res.Metrics
		ok := len(r.problems) == 0 && mt["delivered_frac"].Value == 1 && mt["latency_p99_ms"].Value <= ladderLatencyMs
		b.note("ladder %7d flows/s: delivered %.5f, latency p50 %.2f ms p99 %.2f ms, cpu %.0f ns/flow, checks %d failed -> %v",
			rate, mt["delivered_frac"].Value, mt["latency_p50_ms"].Value, mt["latency_p99_ms"].Value,
			mt["cpu_ns_per_flow"].Value, len(r.problems), ok)
		b.res.Attempted += r.res.Attempted
		if !ok {
			break
		}
		best = rate
	}
	b.note("operating point: highest wire-paced rate with zero loss and p99 <= %d ms: %d flows/s", ladderLatencyMs, best)
	b.set("ladder.max_rate", "1/s", float64(best))
	return nil
}
