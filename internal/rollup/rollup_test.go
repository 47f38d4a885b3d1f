package rollup

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dbl"
)

var t0 = time.Date(2022, 5, 25, 12, 0, 0, 0, time.UTC)

// randKey draws from a small alphabet so merges collide often.
func randKey(r *rand.Rand) Key {
	return Key{
		Service:  fmt.Sprintf("svc%d.example", r.Intn(6)),
		ASN:      uint32(64500 + r.Intn(3)),
		Category: dbl.Category(r.Intn(3)),
	}
}

func randWindow(r *rand.Rand, start time.Time) Window {
	m := make(map[Key]Counters)
	for i, n := 0, 1+r.Intn(12); i < n; i++ {
		k := randKey(r)
		c := m[k]
		c.Bytes += uint64(r.Intn(10000))
		c.Packets += uint64(r.Intn(100))
		c.Flows += uint64(1 + r.Intn(5))
		m[k] = c
	}
	w := Window{Start: start, Dur: time.Minute}
	for k, c := range m {
		w.Rows = append(w.Rows, Row{Key: k, Counters: c})
	}
	sortRows(w.Rows)
	return w
}

// TestMergeLaws is the property test behind the seal path: Merge is
// commutative and associative, and totals are preserved — so per-shard
// partials (and per-process partials) can be combined in any order and
// always agree.
func TestMergeLaws(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		a := randWindow(r, t0)
		b := randWindow(r, t0)
		c := randWindow(r, t0)

		ab, ba := Merge(a, b), Merge(b, a)
		if !reflect.DeepEqual(ab.Rows, ba.Rows) {
			t.Fatalf("iter %d: Merge not commutative:\n a+b=%v\n b+a=%v", iter, ab.Rows, ba.Rows)
		}
		left, right := Merge(Merge(a, b), c), Merge(a, Merge(b, c))
		if !reflect.DeepEqual(left.Rows, right.Rows) {
			t.Fatalf("iter %d: Merge not associative", iter)
		}

		at, bt, abt := a.Total(), b.Total(), ab.Total()
		want := Counters{
			Bytes:   at.Bytes + bt.Bytes,
			Packets: at.Packets + bt.Packets,
			Flows:   at.Flows + bt.Flows,
		}
		if abt != want {
			t.Fatalf("iter %d: Merge not total-preserving: %+v + %+v -> %+v", iter, at, bt, abt)
		}
	}
}

func TestMergeIdentityAndSpan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randWindow(r, t0)
	got := Merge(a, Window{})
	if !reflect.DeepEqual(got.Rows, a.Rows) || !got.Start.Equal(a.Start) || got.Dur != a.Dur {
		t.Fatalf("merge with empty altered window: %+v", got)
	}
	got = Merge(Window{}, a)
	if !reflect.DeepEqual(got.Rows, a.Rows) || !got.Start.Equal(a.Start) {
		t.Fatalf("empty-first merge lost span: %+v", got)
	}
}

// TestObserveOrderAndShardIndependence is the engine-level property: the
// sealed result is a pure function of the observation multiset —
// independent of observation order and of how observations are spread
// across shards.
func TestObserveOrderAndShardIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	type obs struct {
		ts      time.Time
		key     Key
		bytes   uint64
		packets uint64
	}
	events := make([]obs, 2000)
	for i := range events {
		events[i] = obs{
			ts:      t0.Add(time.Duration(r.Intn(300)) * time.Second), // spans 5 windows
			key:     randKey(r),
			bytes:   uint64(r.Intn(5000)),
			packets: uint64(r.Intn(50)),
		}
	}
	run := func(shards int, order []int) []Window {
		eng := New(time.Minute, shards)
		for _, i := range order {
			e := events[i]
			eng.Observe(r.Intn(1000), e.ts, e.key, e.bytes, e.packets) // arbitrary shard
		}
		return eng.SealAll()
	}
	inOrder := make([]int, len(events))
	for i := range inOrder {
		inOrder[i] = i
	}
	want := run(1, inOrder)
	if len(want) != 5 {
		t.Fatalf("window count = %d, want 5", len(want))
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]int(nil), inOrder...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := run(1+r.Intn(16), shuffled)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sealed windows depend on order/sharding", trial)
		}
	}
}

func TestWindowAlignmentAndSealBefore(t *testing.T) {
	eng := New(time.Minute, 2)
	if eng.Window() != time.Minute {
		t.Fatalf("Window = %v", eng.Window())
	}
	k := Key{Service: "svc.example"}
	eng.Observe(0, t0.Add(59*time.Second), k, 100, 1) // window [t0, t0+60)
	eng.Observe(1, t0.Add(61*time.Second), k, 200, 2) // window [t0+60, t0+120)

	// Cutoff exactly at the first window's end seals it and nothing else.
	sealed := eng.SealBefore(t0.Add(60 * time.Second))
	if len(sealed) != 1 {
		t.Fatalf("sealed = %d windows, want 1", len(sealed))
	}
	w := sealed[0]
	if !w.Start.Equal(t0) || w.Dur != time.Minute {
		t.Fatalf("sealed window span = %v + %v", w.Start, w.Dur)
	}
	if tot := w.Total(); tot != (Counters{Bytes: 100, Packets: 1, Flows: 1}) {
		t.Fatalf("sealed total = %+v", tot)
	}

	// The second window is still live; Snapshot sees it without consuming.
	for i := 0; i < 2; i++ {
		snap := eng.Snapshot()
		if len(snap) != 1 || !snap[0].Start.Equal(t0.Add(time.Minute)) {
			t.Fatalf("snapshot #%d = %+v", i, snap)
		}
	}
	rest := eng.SealAll()
	if len(rest) != 1 || rest[0].Total().Bytes != 200 {
		t.Fatalf("SealAll = %+v", rest)
	}
	if left := eng.SealAll(); left != nil {
		t.Fatalf("engine not empty after SealAll: %+v", left)
	}
}

func TestPreEpochTimestampsBucketBelow(t *testing.T) {
	eng := New(time.Minute, 1)
	old := time.Unix(-61, 0)
	eng.Observe(0, old, Key{}, 1, 1)
	sealed := eng.SealAll()
	if len(sealed) != 1 {
		t.Fatalf("sealed = %d", len(sealed))
	}
	if s := sealed[0].Start; s.After(old) {
		t.Fatalf("window start %v is after the observation %v", s, old)
	}
}

func TestNextShardRoundRobin(t *testing.T) {
	eng := New(time.Minute, 4)
	seen := make(map[int]int)
	for i := 0; i < 8; i++ {
		seen[eng.NextShard()]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] != 2 {
			t.Fatalf("shard %d claimed %d times, want 2 (round robin): %v", s, seen[s], seen)
		}
	}
}

// TestObserveHitPathAllocFree enforces the acceptance bar in a test, not
// just the guarded benchmark: once a (window, key) pair exists on a shard,
// Observe allocates nothing.
func TestObserveHitPathAllocFree(t *testing.T) {
	eng := New(time.Minute, 4)
	k := Key{Service: "svc.example", ASN: 64500, Category: dbl.Spam}
	eng.Observe(2, t0, k, 1, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Observe(2, t0, k, 1500, 10)
	})
	if allocs != 0 {
		t.Fatalf("Observe hit path allocates %.1f/op, want 0", allocs)
	}
}

func TestNewNormalizesArguments(t *testing.T) {
	eng := New(0, 0)
	if eng.Window() != DefaultWindow || eng.Shards() != DefaultShards {
		t.Fatalf("defaults = %v/%d", eng.Window(), eng.Shards())
	}
	if w := New(1500*time.Millisecond, 1).Window(); w != 2*time.Second {
		t.Fatalf("fractional window rounded to %v, want 2s", w)
	}
	if w := New(500*time.Millisecond, 1).Window(); w != time.Second {
		t.Fatalf("sub-second window = %v, want the 1s minimum", w)
	}
}

func TestMergeAll(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ws := []Window{randWindow(r, t0), randWindow(r, t0), randWindow(r, t0)}
	got := MergeAll(ws)
	want := Merge(Merge(ws[0], ws[1]), ws[2])
	if !reflect.DeepEqual(got.Rows, want.Rows) || !got.Start.Equal(want.Start) {
		t.Fatalf("MergeAll != pairwise fold:\n got %+v\nwant %+v", got, want)
	}
	if z := MergeAll(nil); len(z.Rows) != 0 || !z.Start.IsZero() {
		t.Fatalf("MergeAll(nil) = %+v, want zero window", z)
	}
}

// Total sums the window's counters across all keys.
func (w *Window) Total() Counters {
	var t Counters
	for i := range w.Rows {
		t.add(w.Rows[i].Counters)
	}
	return t
}
