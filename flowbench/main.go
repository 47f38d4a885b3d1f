// Command flowbench is the FlowDNS benchmark. One invocation runs one
// workload and prints every metric by name with its unit, then, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the daemon and this program
// first):
//
//	bash flowbench/run.sh --workload wire-paced --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the end-to-end metrics are measured with nothing wrapped;
// the three daemon workloads run the real cmd/flowdns binary as a child
// process. With --trace 1 a separate run assembles the same components in
// process from their public constructors, wraps the calls into each layer,
// records spans, and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps a workload name to its untraced and traced runners.
var workloads = map[string]struct {
	run, traced func(*bench) error
}{
	"wire-paced":      {runWire, tracedWire},
	"wire-burst":      {runWire, tracedWire},
	"replay-saturate": {runReplay, tracedReplay},
	"query-mixed":     {runWire, tracedWire},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one invocation.
type bench struct {
	workload string
	seed     int64
	seconds  int
	rate     int // flows/s override of the wire rate ladder; 0 = the workload's
	trace    bool
	daemon   string // path of the flowdns binary
	dir      string // run directory of this invocation, removed at exit

	res      result
	problems []string // failed correctness checks
	notes    []string // report lines printed before the result
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: wire-paced, wire-burst, replay-saturate, query-mixed")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		daemon  = flag.String("daemon", "", "flowdns binary")
		workdir = flag.String("workdir", ".bench_build/runs", "directory for run files")
		ladder  = flag.Bool("ladder", false, "run the wire-paced rate ladder instead of a workload")
	)
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace, *daemon, *workdir, *ladder); err != nil {
		fmt.Fprintln(os.Stderr, "flowbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds, trace int, daemon, workdir string, ladder bool) error {
	w, ok := workloads[wl]
	if !ok && !ladder {
		return fmt.Errorf("unknown workload %q", wl)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	if daemon == "" {
		return errors.New("no -daemon binary")
	}
	if ladder {
		wl = "wire-paced"
	}
	b := &bench{workload: wl, seed: seed, seconds: seconds, trace: trace == 1, daemon: daemon}
	b.res.Metrics = make(map[string]metric)
	b.dir = filepath.Join(workdir, fmt.Sprintf("%s-s%d-t%d-%d", wl, seed, trace, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)

	fmt.Println("# host:", hostInfo())
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", wl, seed, seconds, trace)
	var err error
	switch {
	case ladder:
		err = runLadder(b)
	case b.trace:
		err = w.traced(b)
	default:
		err = w.run(b)
	}
	if err != nil {
		return err
	}
	for _, n := range b.notes {
		fmt.Println("#", n)
	}
	for _, p := range b.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("# %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b.res.Correct = len(b.problems) == 0
	if b.res.Attempted < 1 {
		return errors.New("nothing attempted")
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		return fmt.Errorf("%d correctness checks failed", len(b.problems))
	}
	return nil
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// note adds a report line.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// hostInfo is the provenance line every reported number carries.
func hostInfo() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	read := func(p string) string {
		data, err := os.ReadFile(p)
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(data))
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s rmem_default=%s rmem_max=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		read("/proc/sys/kernel/osrelease"), read("/proc/sys/net/core/rmem_default"), read("/proc/sys/net/core/rmem_max"))
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts vs and returns its middle value.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// The host this benchmark was built on is shared: a vCPU runs up to twice
// as slow for seconds at a time while a neighbour is busy. Outside load
// only ever slows work down, so every timed metric is taken per slice of
// the run (half a second of the send schedule, a group of replay steps, a
// tenth of the query phase) and the run reports the slice a tenth of the
// way from the best: the 10th percentile over slices, the 90th where
// higher is better.

// lowDecile and highDecile sort vs in place and return its 10th and 90th
// percentiles.
func lowDecile(vs []float64) float64  { sort.Float64s(vs); return quantile(vs, 0.1) }
func highDecile(vs []float64) float64 { sort.Float64s(vs); return quantile(vs, 0.9) }

// percentiles records name_p50 (low decile of the p50 of each slice in
// p50s) and name_p99 (likewise over p99s), with their sample counts. Each
// p99 slice must leave at least 30 samples beyond its p99.
func (b *bench) percentiles(name, unit string, p50s, p99s [][]float64) {
	var p50, p99 []float64
	n50, n99, beyond := 0, 0, math.MaxInt
	for _, s := range p50s {
		if len(s) > 0 {
			sort.Float64s(s)
			p50 = append(p50, quantile(s, 0.50))
			n50 += len(s)
		}
	}
	for _, s := range p99s {
		if len(s) > 0 {
			sort.Float64s(s)
			p99 = append(p99, quantile(s, 0.99))
			n99 += len(s)
			beyond = min(beyond, len(s)-int(math.Ceil(0.99*float64(len(s)))))
		}
	}
	b.set(name+"_p50_"+unit, unit, lowDecile(p50))
	b.set(name+"_p99_"+unit, unit, lowDecile(p99))
	b.note("%s: p50 over %d samples in %d slices, p99 over %d samples in %d slices with at least %d beyond each slice's p99; 10th percentile over slices",
		name, n50, len(p50), n99, len(p99), beyond)
	if (len(p99) == 0 || beyond < 30) && !b.trace {
		b.fail("%s: fewer than 30 samples beyond a slice's p99", name)
	}
}

// slices groups timed samples into n equal slices of [0, span).
func slices(n int, span time.Duration, at func(i int) time.Duration, v func(i int) float64, count int) [][]float64 {
	out := make([][]float64, n)
	for i := 0; i < count; i++ {
		k := min(max(int(at(i)*time.Duration(n)/span), 0), n-1)
		out[k] = append(out[k], v(i))
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
