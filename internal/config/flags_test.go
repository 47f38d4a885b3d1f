package config

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// parseFlags runs the daemon's flag frontend over args.
func parseFlags(args ...string) (*File, error) {
	fs := flag.NewFlagSet("flowdns", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fl := NewFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return fl.Resolve()
}

// flagDefaultsDoc is the JSON twin of a flag-less command line.
const flagDefaultsDoc = `{
	"dns_streams":[{"listen":":5353"}],
	"flow_streams":[{"listen":":2055"}],
	"output":{"path":"-","sink":"tsv"},
	"correlator":{"variant":"Main","fillup_workers":4,"lookup_workers":10,"write_workers":2,
		"write_batch_size":256,"write_flush_ms":50},
	"rollup":{"window_seconds":60,"path":"rollups.tsv","format":"tsv"}
}`

// TestFlagsMatchJSON checks that each flag invocation yields the same File
// and core.Config as its JSON twin: the flag defaults document with the
// twin's keys laid over it, decoded as Parse decodes.
func TestFlagsMatchJSON(t *testing.T) {
	cases := []struct {
		args []string
		twin string
	}{
		{nil, `{}`},
		// The daemon invocation of the repository's benchmark.
		{[]string{"-dns-listen", "127.0.0.1:1", "-netflow-listen", "127.0.0.1:2",
			"-out", "-", "-sink", "tsv",
			"-rollup", "-window", "1s", "-rollup-out=", "-bgp-table", "b.txt", "-dbl", "d.txt",
			"-query-addr", "127.0.0.1:3", "-store-dir", "ws",
			"-snapshot", "s.snap", "-stats-interval", "1h"},
			`{"dns_streams":[{"listen":"127.0.0.1:1"}],"flow_streams":[{"listen":"127.0.0.1:2"}],
			"rollup":{"enabled":true,"window_seconds":1,"path":"","bgp_table":"b.txt","blocklist":"d.txt"},
			"query":{"listen":"127.0.0.1:3","store_dir":"ws"},
			"correlator":{"snapshot_path":"s.snap"}}`},
		// The cluster end-to-end test's worker and router.
		{[]string{"-role", "worker", "-node", "w1", "-dns-listen", "a:1", "-netflow-listen", "a:2",
			"-query-addr", "a:3", "-sink", "tsv", "-out", "w1.tsv", "-flush-interval", "50ms"},
			`{"cluster":{"role":"worker","node":"w1"},"dns_streams":[{"listen":"a:1"}],
			"flow_streams":[{"listen":"a:2"}],"query":{"listen":"a:3"},"output":{"path":"w1.tsv"}}`},
		{[]string{"-role", "router", "-node", "router", "-forward-to", "w1=a:2/a:1, w2=b:2/b:1",
			"-dns-listen", "r:1,r:4", "-netflow-listen", "r:2", "-query-addr", "r:3", "-vnodes", "16"},
			`{"cluster":{"role":"router","node":"router","vnodes":16,"nodes":[
				{"name":"w1","flow":"a:2","dns":"a:1"},{"name":"w2","flow":"b:2","dns":"b:1"}]},
			"dns_streams":[{"listen":"r:1"},{"listen":"r:4"}],"flow_streams":[{"listen":"r:2"}],
			"query":{"listen":"r:3"}}`},
		// A worker may carry the ring, as a shared cluster file does.
		{[]string{"-role", "worker", "-forward-to", "w1=a:2/a:1"},
			`{"cluster":{"role":"worker","nodes":[{"name":"w1","flow":"a:2","dns":"a:1"}]}}`},
		// Tuning, durations rounded up onto their whole-unit keys, and the
		// chaos and retry surfaces.
		{[]string{"-variant", "NoLong", "-lanes", "4", "-fill-lanes", "2", "-fillup-workers", "3",
			"-lookup-workers", "8", "-write-workers", "1", "-batch-size", "64", "-flush-interval", "1500us",
			"-ingest-batch", "8", "-sample-max-shed", "0.5", "-sample-low-water", "0.4",
			"-sample-high-water", "0.8", "-dns-idle-timeout", "90s", "-snapshot", "s",
			"-snapshot-every", "1m30s", "-retry-sink", "-retry-spill", "sp", "-faults",
			"core.sink.write=2*error(x);core.sink.flush=error", "-fault-admin",
			"-sink", "json", "-skip-misses", "-out", "o.jsonl", "-retention", "500ms",
			"-compact-after", "-500ms", "-rollup", "-rollup-format", "json", "-rollup-http", ":8080"},
			`{"correlator":{"variant":"NoLong","lanes":4,"fill_lanes":2,"fillup_workers":3,
				"lookup_workers":8,"write_workers":1,"write_batch_size":64,"write_flush_ms":2,
				"ingest_batch":8,"sample_max_shed":0.5,"sample_low_water":0.4,"sample_high_water":0.8,
				"dns_idle_timeout_seconds":90,"snapshot_path":"s","snapshot_every_seconds":90},
			"output":{"path":"o.jsonl","sink":"json","skip_misses":true,"retry":{"spill_path":"sp"}},
			"faults":{"core.sink.write":"2*error(x)","core.sink.flush":"error"},"fault_admin":true,
			"query":{"retention_seconds":1,"compact_after_seconds":-1},
			"rollup":{"enabled":true,"format":"json","http":":8080"}}`},
	}
	for _, c := range cases {
		got, err := parseFlags(c.args...)
		if err != nil {
			t.Errorf("flags %q: %v", c.args, err)
			continue
		}
		var want File
		for _, doc := range []string{flagDefaultsDoc, c.twin} {
			if err := json.Unmarshal([]byte(doc), &want); err != nil {
				t.Fatal(err)
			}
		}
		if err := want.Validate(); err != nil {
			t.Errorf("twin of %q: %v", c.args, err)
			continue
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("flags %q:\n got %+v\nwant %+v", c.args, *got, want)
			continue
		}
		gotCfg, err1 := got.CoreConfig()
		wantCfg, err2 := want.CoreConfig()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gotCfg, wantCfg) {
			t.Errorf("flags %q: core.Config %+v (%v), twin %+v (%v)", c.args, gotCfg, err1, wantCfg, err2)
		}
	}
}

// TestFlagOnlyRejections covers inputs the file cannot spell: a retry spill
// path with no retry, an explicit zero checkpoint cadence, and malformed
// list flags.
func TestFlagOnlyRejections(t *testing.T) {
	for _, args := range [][]string{
		{"-retry-spill", "sp"},
		{"-retry-spill", "sp", "-retry-sink=false"},
		{"-snapshot-every", "0"},
		{"-snapshot", "s", "-snapshot-every", "0s"},
		{"-snapshot-every", "soon"},
		{"-role", "router", "-forward-to", "w1=nowhere"},
		{"-faults", "garbage"},
	} {
		if _, err := parseFlags(args...); err == nil {
			t.Errorf("flags %q accepted", args)
		}
	}
}

// TestDurationFlagsRoundUp pins the adapter's rounding: away from zero to
// the next whole unit, so a sub-unit duration never turns into 0, which the
// file reads as "keep everything" (retention) or "default 10m"
// (compact_after).
func TestDurationFlagsRoundUp(t *testing.T) {
	f, err := parseFlags("-retention", "500ms", "-compact-after", "500ms",
		"-window", "1500ms", "-flush-interval", "1ms", "-dns-idle-timeout", "1s")
	if err != nil {
		t.Fatal(err)
	}
	if f.Query.RetentionSeconds != 1 || f.Query.CompactAfterSeconds != 1 {
		t.Fatalf("retention %ds, compact_after %ds, want 1s each", f.Query.RetentionSeconds, f.Query.CompactAfterSeconds)
	}
	if f.Rollup.WindowSeconds != 2 || f.Correlator.WriteFlushMS != 1 || f.Correlator.DNSIdleTimeoutSeconds != 1 {
		t.Fatalf("window %ds, flush %dms, idle %ds", f.Rollup.WindowSeconds, f.Correlator.WriteFlushMS, f.Correlator.DNSIdleTimeoutSeconds)
	}
	// Negative stays negative: compaction stays off rather than flipping to
	// the default.
	if f, err = parseFlags("-compact-after", "-500ms"); err != nil || f.Query.CompactAfterSeconds != -1 {
		t.Fatalf("compact_after = %d (%v), want -1", f.Query.CompactAfterSeconds, err)
	}
}

// TestFlagNamesAndDefaults pins the command line: every flag name and its
// printed default. Scripts, the benchmark and the cluster test pass these.
func TestFlagNamesAndDefaults(t *testing.T) {
	want := map[string]string{
		"config": "", "example-config": "false", "stats-interval": "30s",
		"dns-listen": ":5353", "netflow-listen": ":2055",
		"out": "-", "sink": "tsv", "sink-url": "", "measurement": "", "skip-misses": "false",
		"variant": "Main", "lanes": "0", "fill-lanes": "0", "fillup-workers": "4",
		"lookup-workers": "10", "write-workers": "2", "batch-size": "256", "ingest-batch": "0",
		"flush-interval": "50ms", "snapshot": "", "snapshot-every": "5m0s",
		"sample-max-shed": "0", "sample-low-water": "0", "sample-high-water": "0",
		"dns-idle-timeout": "0s",
		"rollup":           "false", "window": "1m0s", "rollup-out": "rollups.tsv", "rollup-format": "tsv",
		"rollup-http": "", "bgp-table": "", "dbl": "",
		"retry-sink": "false", "retry-spill": "", "faults": "", "fault-admin": "false",
		"query-addr": "", "store-dir": "", "retention": "0s", "compact-after": "0s",
		"role": "", "forward-to": "", "node": "", "vnodes": "0",
	}
	fs := flag.NewFlagSet("flowdns", flag.ContinueOnError)
	NewFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if len(want) != 44 || !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v\nwant %v", got, want)
	}
}

// TestConfigFlagReplacesFile checks -config mode: the file governs
// wholesale (other knob flags, even invalid ones, are ignored), except that
// an output without a path falls back to -out and -faults arms on top of
// the file's faults.
func TestConfigFlagReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flowdns.json")
	doc := `{"dns_streams":[{"listen":":7"}],"faults":{"core.sink.write":"error"}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := parseFlags("-config", path, "-out", "fallback.tsv", "-retention", "-1s",
		"-variant", "Bogus", "-faults", "core.sink.flush=error")
	if err != nil {
		t.Fatal(err)
	}
	if f.Output.Path != "fallback.tsv" || len(f.FlowStreams) != 0 || f.Correlator.Variant != "" {
		t.Fatalf("file = %+v", f)
	}
	if want := map[string]string{"core.sink.write": "error", "core.sink.flush": "error"}; !reflect.DeepEqual(f.Faults, want) {
		t.Fatalf("faults = %v, want %v", f.Faults, want)
	}
	if _, err := parseFlags("-config", filepath.Join(t.TempDir(), "missing.json")); err == nil ||
		!strings.Contains(err.Error(), "config:") {
		t.Fatalf("missing config file: %v", err)
	}
}
