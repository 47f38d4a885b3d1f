// Package experiments reproduces every table and figure of the paper's
// evaluation (§4, §5, appendices). Each experiment is a named, runnable
// unit shared by the cmd/experiments binary and the repository-level
// benchmarks; results carry both printable rows (the series the paper
// plots) and key metric values for programmatic assertions.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// SimStart anchors simulated time at the paper's measurement week
// (25 May 2022, UTC).
var SimStart = time.Date(2022, 5, 25, 0, 0, 0, 0, time.UTC)

// HourStats is one simulated hour of a driver run — the sampling grain of
// Figures 2, 3, and 7.
type HourStats struct {
	Hour       int     // hours since SimStart
	TrafficGB  float64 // bytes offered this hour (normalized unit)
	CorrRate   float64 // correlation rate within this hour (bytes)
	CPUPct     float64 // process CPU percent over the hour's processing
	HeapMB     float64 // live heap after the hour (post-GC)
	Entries    int     // total hashmap entries (state size)
	DNSRecords uint64  // records filled this hour
	Flows      uint64  // flows looked up this hour
	LossRate   float64 // cumulative queue loss so far
}

// SimResult is a full driver run.
type SimResult struct {
	Variant core.Variant
	Hours   []HourStats
	Final   core.Stats
}

// SimParams sizes a simulation. Rates are per simulated hour at the diurnal
// peak; the curve scales them down through the day.
type SimParams struct {
	Variant      core.Variant
	Days         int
	DNSPerHour   int // DNS query events per peak hour
	FlowsPerHour int // flow records per peak hour
	StepsPerHour int // timestamp granularity within an hour
	Seed         int64
	Universe     *workload.Universe
	Sink         core.Sink
	// OnFlow, when set, sees every correlated flow inline (cheaper than a
	// Sink when the caller also needs the hour index).
	OnFlow func(hour int, cf core.CorrelatedFlow)
}

func (p SimParams) normalized() SimParams {
	if p.Days <= 0 {
		p.Days = 1
	}
	if p.DNSPerHour <= 0 {
		p.DNSPerHour = 2000
	}
	if p.FlowsPerHour <= 0 {
		p.FlowsPerHour = 20000
	}
	if p.StepsPerHour <= 0 {
		p.StepsPerHour = 6
	}
	if p.Universe == nil {
		p.Universe = workload.NewUniverse(workload.DefaultConfig())
	}
	if p.Variant == "" {
		p.Variant = core.VariantMain
	}
	return p
}

// RunSim replays a synthetic multi-day workload through a correlator
// synchronously (deterministic record clock; rotation driven by record
// timestamps exactly as in a live run) and samples resources every
// simulated hour.
func RunSim(p SimParams) *SimResult {
	p = p.normalized()
	c := core.New(core.ConfigForVariant(p.Variant), core.WithSink(p.Sink))
	g := workload.NewGenerator(p.Universe, p.Seed)
	res := &SimResult{Variant: p.Variant}
	cpu := metrics.NewCPUSampler()
	var prev core.Stats
	var batch []core.CorrelatedFlow
	totalHours := p.Days * 24
	for h := 0; h < totalHours; h++ {
		hourStart := SimStart.Add(time.Duration(h) * time.Hour)
		mult := workload.DiurnalMultiplier(float64(h % 24))
		dnsThisHour := int(float64(p.DNSPerHour) * mult)
		flowsThisHour := int(float64(p.FlowsPerHour) * mult)
		for s := 0; s < p.StepsPerHour; s++ {
			ts := hourStart.Add(time.Duration(s) * time.Hour / time.Duration(p.StepsPerHour))
			c.IngestDNSBatch(g.DNSBatch(ts, dnsThisHour/p.StepsPerHour))
			batch = c.CorrelateBatch(batch[:0], g.FlowBatch(ts, flowsThisHour/p.StepsPerHour))
			if p.OnFlow != nil {
				for i := range batch {
					p.OnFlow(h, batch[i])
				}
			}
			if p.Sink != nil && len(batch) > 0 {
				if err := p.Sink.WriteBatch(context.Background(), batch); err != nil {
					// Experiments must never report figures from silently
					// truncated output.
					panic(fmt.Sprintf("experiments: sink failed mid-simulation: %v", err))
				}
			}
		}
		st := c.Stats()
		hs := HourStats{
			Hour:       h,
			DNSRecords: st.DNSRecords - prev.DNSRecords,
			Flows:      st.Flows - prev.Flows,
			CPUPct:     cpu.Sample(),
			Entries:    st.IPNameEntries + st.NameCnameEntries,
			LossRate:   st.LossRate(),
		}
		hs.TrafficGB = float64(st.FlowBytes-prev.FlowBytes) / 1e9
		if db := st.FlowBytes - prev.FlowBytes; db > 0 {
			hs.CorrRate = float64(st.CorrelatedBytes-prev.CorrelatedBytes) / float64(db)
		}
		runtime.GC()
		hs.HeapMB = metrics.HeapMB()
		res.Hours = append(res.Hours, hs)
		prev = st
	}
	res.Final = c.Stats()
	return res
}

// Result is the outcome of one experiment: printable lines plus named
// metric values for assertions.
type Result struct {
	ID       string
	Title    string
	Headline string
	Lines    []string
	Values   map[string]float64
}

func (r *Result) addLine(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) set(key string, v float64) {
	if r.Values == nil {
		r.Values = make(map[string]float64)
	}
	r.Values[key] = v
}

// Experiment couples an id from the DESIGN.md experiment index with its
// runner. Scale in (0,1] shrinks the workload proportionally (tests run at
// low scale; benches at 1.0).
type Experiment struct {
	ID    string
	Title string
	Paper string // which figure/table/section this regenerates
	Run   func(scale float64) *Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in registration (paper) order.
func All() []Experiment { return registry }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// clampScale keeps scaled workloads sane.
func clampScale(s float64) float64 {
	if s <= 0 || s > 4 {
		return 1
	}
	return s
}
