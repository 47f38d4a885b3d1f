package winstore

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/rollup"
)

var base = time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)

func openStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreAddQueryRoundTrip(t *testing.T) {
	s := openStore(t, Config{PartDur: time.Hour})
	var all []rollup.Window
	for i := 0; i < 5; i++ {
		w := mkWindow(base.Add(time.Duration(i)*time.Minute), time.Minute, 4, int64(i))
		all = append(all, w)
	}
	if err := s.Add(all); err != nil {
		t.Fatal(err)
	}
	got := s.Query(base, base.Add(time.Hour))
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("query returned %d windows, want %d:\n got %+v\nwant %+v", len(got), len(all), got, all)
	}
	// Sub-range query: only the overlapping windows.
	got = s.Query(base.Add(time.Minute), base.Add(3*time.Minute))
	if len(got) != 2 || !got[0].Start.Equal(all[1].Start) || !got[1].Start.Equal(all[2].Start) {
		t.Fatalf("sub-range query: %+v", got)
	}
	// Empty range.
	if got := s.Query(base.Add(-time.Hour), base); got != nil {
		t.Fatalf("pre-range query returned %d windows", len(got))
	}
}

func TestStoreQueryMergesPartials(t *testing.T) {
	s := openStore(t, Config{PartDur: time.Hour})
	w1 := mkWindow(base, time.Minute, 4, 1)
	w2 := mkWindow(base, time.Minute, 3, 2) // late partial, same interval
	if err := s.Add([]rollup.Window{w1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]rollup.Window{w2}); err != nil {
		t.Fatal(err)
	}
	got := s.Query(base, base.Add(time.Minute))
	if len(got) != 1 {
		t.Fatalf("partials not merged: %d windows", len(got))
	}
	want := rollup.Merge(w1, w2)
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("merged window diverges:\n got %+v\nwant %+v", got[0], want)
	}
}

// TestStoreRestart persists windows, reopens the directory with a fresh
// Store, and requires identical query results — the warm-serving half of
// the e2e restart contract.
func TestStoreRestart(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, PartDur: 30 * time.Minute})
	var all []rollup.Window
	// Span several partitions.
	for i := 0; i < 90; i += 10 {
		all = append(all, mkWindow(base.Add(time.Duration(i)*time.Minute), time.Minute, 5, int64(i)))
	}
	if err := s.Add(all); err != nil {
		t.Fatal(err)
	}
	want := s.Query(base.Add(-time.Hour), base.Add(3*time.Hour))

	s2 := openStore(t, Config{Dir: dir, PartDur: 30 * time.Minute})
	got := s2.Query(base.Add(-time.Hour), base.Add(3*time.Hour))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted store diverges:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Partitions != 3 {
		t.Fatalf("partitions = %d, want 3", st.Partitions)
	}
}

// TestStoreRestartKeepsValidatedPrefix damages a segment file's tail and
// requires the reopened store to serve the validated prefix.
func TestStoreRestartKeepsValidatedPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, PartDur: time.Hour})
	w1 := mkWindow(base, time.Minute, 4, 1)
	w2 := mkWindow(base.Add(time.Minute), time.Minute, 4, 2)
	if err := s.Add([]rollup.Window{w1, w2}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the second section: the first window
	// must survive.
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, Config{Dir: dir, PartDur: time.Hour})
	got := s2.Query(base, base.Add(time.Hour))
	if len(got) != 1 || !reflect.DeepEqual(got[0], w1) {
		t.Fatalf("validated prefix not served: %+v", got)
	}
	if st := s2.Stats(); st.LoadErrors != 1 {
		t.Fatalf("LoadErrors = %d, want 1", st.LoadErrors)
	}
	// The recovery rewrote a clean segment: a third open sees no damage.
	s3 := openStore(t, Config{Dir: dir, PartDur: time.Hour})
	if st := s3.Stats(); st.LoadErrors != 0 {
		t.Fatalf("rewrite after recovery missing: LoadErrors = %d", st.LoadErrors)
	}
}

// windowsTotal sums counters across windows.
func windowsTotal(ws []rollup.Window) rollup.Counters {
	var t rollup.Counters
	for i := range ws {
		for _, r := range ws[i].Rows {
			t.Bytes += r.Bytes
			t.Packets += r.Packets
			t.Flows += r.Flows
		}
	}
	return t
}

// TestCompactWindowsEqualsMerge is the compaction law: compact(w1..wn)
// equals the per-interval merge of the windows — totals preserved, result
// independent of input order and of how the windows were partitioned into
// partials.
func TestCompactWindowsEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		// Random partials over a handful of intervals.
		var ws []rollup.Window
		intervals := 1 + rng.Intn(5)
		for i := 0; i < intervals; i++ {
			start := base.Add(time.Duration(i) * time.Minute)
			partials := 1 + rng.Intn(4)
			for p := 0; p < partials; p++ {
				ws = append(ws, mkWindow(start, time.Minute, 1+rng.Intn(6), rng.Int63()))
			}
		}
		compacted := CompactWindows(ws)

		// Totals preserved.
		if got, want := windowsTotal(compacted), windowsTotal(ws); got != want {
			t.Fatalf("trial %d: totals diverge: %+v != %+v", trial, got, want)
		}
		// One window per interval, sorted.
		if len(compacted) != intervals {
			t.Fatalf("trial %d: %d windows, want %d", trial, len(compacted), intervals)
		}
		for i := 1; i < len(compacted); i++ {
			if !compacted[i-1].Start.Before(compacted[i].Start) {
				t.Fatalf("trial %d: not sorted", trial)
			}
		}
		// Equals the reference merge, per interval.
		for _, w := range compacted {
			var group []rollup.Window
			for _, in := range ws {
				if in.Start.Equal(w.Start) {
					group = append(group, in)
				}
			}
			if want := rollup.MergeAll(group); !reflect.DeepEqual(w, want) {
				t.Fatalf("trial %d: interval %v diverges from MergeAll", trial, w.Start)
			}
		}

		// Order independence.
		shuffled := append([]rollup.Window(nil), ws...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := CompactWindows(shuffled); !reflect.DeepEqual(got, compacted) {
			t.Fatalf("trial %d: order dependence", trial)
		}
		// Partition independence: compacting in two arbitrary halves and
		// compacting the concatenation of the halves' outputs agrees.
		cut := rng.Intn(len(ws) + 1)
		left, right := CompactWindows(ws[:cut]), CompactWindows(ws[cut:])
		if got := CompactWindows(append(append([]rollup.Window(nil), left...), right...)); !reflect.DeepEqual(got, compacted) {
			t.Fatalf("trial %d: partition dependence", trial)
		}
		// Idempotence.
		if got := CompactWindows(compacted); !reflect.DeepEqual(got, compacted) {
			t.Fatalf("trial %d: not idempotent", trial)
		}
	}
}

func TestStoreCompactBefore(t *testing.T) {
	s := openStore(t, Config{PartDur: 10 * time.Minute})
	// Two partials in an old partition, one window in a recent one.
	old1 := mkWindow(base, time.Minute, 4, 1)
	old2 := mkWindow(base, time.Minute, 3, 2)
	recent := mkWindow(base.Add(30*time.Minute), time.Minute, 4, 3)
	if err := s.Add([]rollup.Window{old1, old2, recent}); err != nil {
		t.Fatal(err)
	}
	pre := s.Query(base, base.Add(time.Hour))

	n, err := s.CompactBefore(base.Add(20 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("compacted %d partitions, want 1", n)
	}
	st := s.Stats()
	if st.Compacted != 1 || st.Compactions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The old partition now holds one canonical window in memory.
	if st.Windows != 2 {
		t.Fatalf("windows held = %d, want 2", st.Windows)
	}
	// Query results are unchanged by compaction (merge laws).
	if post := s.Query(base, base.Add(time.Hour)); !reflect.DeepEqual(post, pre) {
		t.Fatalf("compaction changed query results:\n pre %+v\npost %+v", pre, post)
	}
	// Compacting again is a no-op.
	if n, _ := s.CompactBefore(base.Add(20 * time.Minute)); n != 0 {
		t.Fatalf("recompacted %d partitions", n)
	}
	// A late partial re-opens the partition for compaction.
	if err := s.Add([]rollup.Window{mkWindow(base, time.Minute, 2, 9)}); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.CompactBefore(base.Add(20 * time.Minute)); n != 1 {
		t.Fatalf("late partial did not re-open compaction: %d", n)
	}
}

func TestStoreRetention(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, Config{Dir: dir, PartDur: 10 * time.Minute, Retention: 30 * time.Minute})
	old := mkWindow(base, time.Minute, 4, 1)
	fresh := mkWindow(base.Add(50*time.Minute), time.Minute, 4, 2)
	if err := s.Add([]rollup.Window{old, fresh}); err != nil {
		t.Fatal(err)
	}
	n, err := s.EnforceRetention(base.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("deleted %d partitions, want 1", n)
	}
	if got := s.Query(base, base.Add(time.Hour)); len(got) != 1 || !got[0].Start.Equal(fresh.Start) {
		t.Fatalf("retention left %+v", got)
	}
	// The segment file is gone from disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d segment files on disk, want 1", len(entries))
	}
	if st := s.Stats(); st.RetentionDeletes != 1 || st.Partitions != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStoreInvalidationCallbacks(t *testing.T) {
	s := openStore(t, Config{PartDur: 10 * time.Minute, Retention: 30 * time.Minute})
	type rng struct{ from, to time.Time }
	var calls []rng
	s.OnInvalidate(func(from, to time.Time) { calls = append(calls, rng{from, to}) })

	if err := s.Add([]rollup.Window{mkWindow(base, time.Minute, 3, 1)}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Fatalf("add: %d invalidations, want 1", len(calls))
	}
	partFrom := time.Unix(s.partStart(base), 0).UTC()
	if !calls[0].from.Equal(partFrom) || !calls[0].to.Equal(partFrom.Add(10*time.Minute)) {
		t.Fatalf("add invalidated %v..%v, want %v..%v", calls[0].from, calls[0].to, partFrom, partFrom.Add(10*time.Minute))
	}
	calls = nil
	if _, err := s.CompactBefore(base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Fatalf("compact: %d invalidations, want 1", len(calls))
	}
	calls = nil
	if _, err := s.EnforceRetention(base.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Fatalf("retention: %d invalidations, want 1", len(calls))
	}
}

func TestStoreServeMaintains(t *testing.T) {
	s := openStore(t, Config{
		PartDur:       time.Second,
		CompactAfter:  time.Nanosecond,
		MaintainEvery: 10 * time.Millisecond,
	})
	// Two partials in a partition whose interval is long over.
	old := base // 2022: far in the past relative to the wall clock
	if err := s.Add([]rollup.Window{mkWindow(old, time.Second, 3, 1), mkWindow(old, time.Second, 3, 2)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx) }()
	deadline := time.After(5 * time.Second)
	for s.Stats().Compactions == 0 {
		select {
		case <-deadline:
			t.Fatal("maintenance loop never compacted")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	if s.Name() != "winstore" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestStoreBounds(t *testing.T) {
	s := openStore(t, Config{PartDur: time.Hour})
	if oldest, newest := s.Bounds(); !oldest.IsZero() || !newest.IsZero() {
		t.Fatal("empty store has bounds")
	}
	if err := s.Add([]rollup.Window{
		mkWindow(base.Add(5*time.Minute), time.Minute, 2, 1),
		mkWindow(base, time.Minute, 2, 2),
	}); err != nil {
		t.Fatal(err)
	}
	oldest, newest := s.Bounds()
	if !oldest.Equal(base) || !newest.Equal(base.Add(6*time.Minute)) {
		t.Fatalf("bounds %v..%v", oldest, newest)
	}
}

func TestStoreOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("no-dir open succeeded")
	}
	// Non-segment files in the directory are ignored.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.seg"), bytes.Repeat([]byte{0xAA}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Partitions != 0 || st.LoadErrors != 1 {
		t.Fatalf("stats after garbage open: %+v", st)
	}
}
