package config

import (
	"flag"
	"fmt"
	"maps"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/forward"
	"repro/internal/rollup"
)

// Flags is the daemon's command line. Every knob flag writes straight into
// File, which starts out as the flag defaults; Config, ExampleConfig and
// StatsInterval are the only flags with no key in the file.
type Flags struct {
	File          File
	Config        string
	ExampleConfig bool
	StatsInterval time.Duration

	// -retry-sink attaches retry to File.Output, and -retry-spill fills in
	// its spill path; the file has no way to say "spill path, no retry".
	retrySink bool
	retry     RetryConfig
}

// NewFlags registers the daemon's flags on fs.
func NewFlags(fs *flag.FlagSet) *Flags {
	// The plain-typed flags below set their own defaults; these seed the
	// fields behind the list and duration flags, whose defaults the flag
	// text below repeats.
	fl := &Flags{File: File{
		DNSStreams:  []StreamConfig{{Listen: ":5353"}},
		FlowStreams: []StreamConfig{{Listen: ":2055"}},
		Correlator:  CorrelatorConfig{WriteFlushMS: int(core.DefaultWriteFlushInterval / time.Millisecond)},
		Rollup:      RollupConfig{WindowSeconds: int(rollup.DefaultWindow / time.Second)},
	}}
	f := &fl.File
	cc, rc, qc, cl := &f.Correlator, &f.Rollup, &f.Query, &f.Cluster

	fs.StringVar(&fl.Config, "config", "", "JSON configuration file (overrides the flags below; see -example-config)")
	fs.BoolVar(&fl.ExampleConfig, "example-config", false, "print an example configuration file and exit")
	fs.DurationVar(&fl.StatsInterval, "stats-interval", 30*time.Second, "stats reporting interval")

	fs.Var(&listFlag[[]StreamConfig]{&f.DNSStreams, parseStreams, ":5353"}, "dns-listen", "comma-separated TCP listen `addresses` for DNS streams")
	fs.Var(&listFlag[[]StreamConfig]{&f.FlowStreams, parseStreams, ":2055"}, "netflow-listen", "comma-separated UDP listen `addresses` for NetFlow/IPFIX streams")
	fs.StringVar(&f.Output.Path, "out", "-", "output file for correlated flows ('-' = stdout)")
	fs.StringVar(&f.Output.Sink, "sink", "tsv", "output sink: "+strings.Join(core.SinkNames(), ", "))
	fs.StringVar(&f.Output.URL, "sink-url", "", "HTTP endpoint for -sink influx (e.g. http://influx:8086/write?db=flowdns; '' = write line protocol to -out)")
	fs.StringVar(&f.Output.Measurement, "measurement", "", "Influx measurement name for -sink influx ('' = flowdns)")
	fs.BoolVar(&f.Output.SkipMisses, "skip-misses", false, "do not write rows for uncorrelated flows")

	fs.StringVar(&cc.Variant, "variant", string(core.VariantMain), "benchmark variant: Main, NoSplit, NoClearUp, NoRotation, NoLong, ExactTTL")
	fs.IntVar(&cc.FillUpWorkers, "fillup-workers", 4, "FillUp workers (spread over the lanes, min one per lane)")
	fs.IntVar(&cc.LookUpWorkers, "lookup-workers", core.DefaultNumSplit, "LookUp workers (spread over the lanes, min one per lane)")
	fs.IntVar(&cc.WriteWorkers, "write-workers", 2, "Write workers")
	fs.IntVar(&cc.WriteBatchSize, "batch-size", core.DefaultWriteBatchSize, "correlated flows per sink WriteBatch call")
	fs.IntVar(&cc.IngestBatch, "ingest-batch", 0, "UDP datagrams drained per batched socket read (recvmmsg ring size; 0 = default 32, 1 = single-read loop)")
	fs.Var(durationFlag{&cc.WriteFlushMS, time.Millisecond, false}, "flush-interval", "max wait for a write batch to fill (a `duration`, rounded up to whole ms)")
	fs.StringVar(&cc.SnapshotPath, "snapshot", "", "warm-restart checkpoint file: restore on boot, checkpoint periodically and on shutdown ('' = disabled)")
	// The seed stays 0 ("unset": core applies its default cadence), so a
	// default -snapshot-every never reads as a cadence without a path; an
	// explicit 0 stays an error, as it always was.
	fs.Var(durationFlag{&cc.SnapshotEverySeconds, time.Second, true}, "snapshot-every", "checkpoint cadence when -snapshot is set (a `duration`, rounded up to whole seconds)")
	fs.Lookup("snapshot-every").DefValue = core.DefaultSnapshotInterval.String()
	fs.Float64Var(&cc.SampleMaxShed, "sample-max-shed", 0, "adaptive sampler shed ceiling in (0,1]: fraction of offered records deliberately shed (and counted) at full buffers (0 = disabled)")
	fs.Float64Var(&cc.SampleLowWater, "sample-low-water", 0, "buffer fill below which the sampler sheds nothing (0 = default 0.5; requires -sample-max-shed)")
	fs.Float64Var(&cc.SampleHighWater, "sample-high-water", 0, "buffer fill at which the shed rate reaches -sample-max-shed (0 = default 0.9; requires -sample-max-shed)")
	fs.Var(durationFlag{&cc.DNSIdleTimeoutSeconds, time.Second, false}, "dns-idle-timeout", "close a DNS TCP stream that goes silent for this long (a `duration`, rounded up to whole seconds; 0 = keep wedged streams open)")

	fs.BoolVar(&rc.Enabled, "rollup", false, "enable online attribution rollups (service × origin-AS × DBL category)")
	fs.Var(durationFlag{&rc.WindowSeconds, time.Second, false}, "window", "rollup window rotation interval (a `duration`, rounded up to whole seconds)")
	fs.StringVar(&rc.Path, "rollup-out", "rollups.tsv", "sealed rollup window export file ('-' = stdout, '' = none)")
	fs.StringVar(&rc.Format, "rollup-format", "tsv", "rollup export format: tsv, json")
	fs.StringVar(&rc.HTTP, "rollup-http", "", "listen address for the /rollups live snapshot endpoint ('' = disabled)")
	fs.StringVar(&rc.BGPTable, "bgp-table", "", "prefix→origin-ASN file for rollup AS attribution")
	fs.StringVar(&rc.Blocklist, "dbl", "", "domain blocklist file for rollup DBL-category attribution")

	fs.BoolVar(&fl.retrySink, "retry-sink", false, "wrap the output sink in a retry/spill wrapper: timeout-bounded attempts, doubling backoff, bounded buffering across sink outages")
	fs.StringVar(&fl.retry.SpillPath, "retry-spill", "", "on-disk spill file for -retry-sink, replayed after recovery or restart ('' = memory-only)")
	fs.Var(&listFlag[map[string]string]{&f.Faults, fault.ParseSpecs, ""}, "faults", "arm `failpoints` at boot: name=spec[;name=spec...], same grammar as the FLOWDNS_FAULTS env var (chaos testing)")
	fs.BoolVar(&f.FaultAdmin, "fault-admin", false, "mount /admin/fault on the query server: GET failpoint catalog, POST arm/disarm (chaos testing)")

	fs.StringVar(&qc.Listen, "query-addr", "", "query-plane HTTP listen address serving /query/*, /metrics, /rollups ('' = disabled; requires -store-dir unless -role is set)")
	fs.StringVar(&qc.StoreDir, "store-dir", "", "window-store partition directory persisting sealed rollup windows ('' = disabled; requires -rollup)")
	fs.Var(durationFlag{&qc.RetentionSeconds, time.Second, false}, "retention", "delete stored partitions older than this (a `duration`, rounded up to whole seconds; 0 = keep everything)")
	fs.Var(durationFlag{&qc.CompactAfterSeconds, time.Second, false}, "compact-after", "compact a partition this long after its interval ends (a `duration`, rounded up to whole seconds; 0 = default 10m, negative = never)")

	fs.StringVar(&cl.Role, "role", "", "cluster role: '' standalone, 'router' (consistent-hash fan-out to -forward-to nodes, no local store), 'worker' (correlator also serving /admin/handoff)")
	fs.Var(&listFlag[[]ClusterNode]{&cl.Nodes, parseNodes, ""}, "forward-to", "router fan-out `ring`: name=flowAddr/dnsAddr[,name=...] (read by -role router; requires -role)")
	fs.StringVar(&cl.Node, "node", "", "this process's ring name, for handoff placement and cluster health (requires -role)")
	fs.IntVar(&cl.VNodes, "vnodes", 0, "virtual nodes per ring member (0 = default 64); must match across the cluster")
	return fl
}

// Resolve returns the validated File the daemon runs, after the flag set
// has parsed. With -config that is the file, wholesale, except that an
// output without a path falls back to -out and -faults arms on top of the
// file's faults; otherwise it is the File the flags wrote.
func (fl *Flags) Resolve() (*File, error) {
	if fl.Config != "" {
		f, err := Load(fl.Config)
		if err != nil {
			return nil, err
		}
		// As in v1, a config file that names no output path falls back to
		// the -out flag rather than silently switching to stdout.
		if f.Output.Path == "" && f.Output.NeedsWriter() {
			f.Output.Path = fl.File.Output.Path
		}
		if len(fl.File.Faults) > 0 && f.Faults == nil {
			f.Faults = map[string]string{}
		}
		maps.Copy(f.Faults, fl.File.Faults)
		return f, nil
	}
	f := &fl.File
	if fl.retrySink {
		f.Output.Retry = &fl.retry
	} else if fl.retry.SpillPath != "" {
		return nil, fmt.Errorf("config: -retry-spill set without -retry-sink")
	}
	return f, f.Validate()
}

// durationFlag is a Go duration flag stored in an integer field counted in
// unit. Set rounds away from zero, so a non-zero duration never becomes 0,
// which the file reads as "unset" or "off".
type durationFlag struct {
	p    *int
	unit time.Duration
	// nonZero rejects an explicit 0 for a flag whose 0 means "unset".
	nonZero bool
}

func (d durationFlag) String() string {
	if d.p == nil {
		return "0s"
	}
	return (time.Duration(*d.p) * d.unit).String()
}

func (d durationFlag) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if d.nonZero && v == 0 {
		return fmt.Errorf("want a non-zero duration")
	}
	n := v / d.unit
	if r := v % d.unit; r > 0 {
		n++
	} else if r < 0 {
		n--
	}
	*d.p = int(n)
	return nil
}

// listFlag spells a list- or map-shaped File field as one flag string,
// which String reports as given.
type listFlag[T any] struct {
	p     *T
	parse func(string) (T, error)
	text  string
}

func (l *listFlag[T]) String() string { return l.text }

func (l *listFlag[T]) Set(s string) (err error) {
	*l.p, err = l.parse(s)
	l.text = s
	return err
}

func parseStreams(s string) ([]StreamConfig, error) {
	var out []StreamConfig
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, StreamConfig{Listen: a})
		}
	}
	return out, nil
}

// parseNodes reads the forward.ParseNodes grammar; empty means no ring.
func parseNodes(s string) ([]ClusterNode, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	nodes, err := forward.ParseNodes(s)
	var out []ClusterNode
	for _, n := range nodes {
		out = append(out, ClusterNode{Name: n.Name, Flow: n.FlowAddr, DNS: n.DNSAddr})
	}
	return out, err
}
