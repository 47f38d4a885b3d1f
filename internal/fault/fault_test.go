package fault

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// testPoint makes a uniquely named point per test so parallel tests and
// re-runs never share armed state. Hit counters live with the process-wide
// registration, so a re-run (-count=N) starts from the previous run's
// count: tests assert the delta from a reading taken before arming.
func testPoint(t *testing.T) *Point {
	t.Helper()
	p := New("test." + t.Name())
	t.Cleanup(func() { p.armed.Store(nil) })
	return p
}

func TestDisabledInjectIsNil(t *testing.T) {
	p := testPoint(t)
	if err := p.Inject(); err != nil {
		t.Fatalf("disabled Inject = %v, want nil", err)
	}
	if p.Hits() != 0 {
		t.Fatalf("disabled point counted %d hits", p.Hits())
	}
}

func TestErrorAction(t *testing.T) {
	p := testPoint(t)
	before := p.Hits()
	if err := Enable(p.Name(), "error(boom)"); err != nil {
		t.Fatal(err)
	}
	err := p.Inject()
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), p.Name()) {
		t.Fatalf("error text %q missing message or site", err)
	}
	if got := p.Hits() - before; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

func TestCountBudgetSelfDisarms(t *testing.T) {
	p := testPoint(t)
	before := p.Hits()
	if err := Enable(p.Name(), "2*error"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Inject(); err == nil {
			t.Fatalf("fire %d: want error", i)
		}
	}
	if err := p.Inject(); err != nil {
		t.Fatalf("after budget: Inject = %v, want nil", err)
	}
	if p.armed.Load() != nil {
		t.Fatal("exhausted point did not self-disarm")
	}
	if got := p.Hits() - before; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
}

func TestDelayAction(t *testing.T) {
	p := testPoint(t)
	if err := Enable(p.Name(), "1*delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Inject(); err != nil {
		t.Fatalf("delay Inject = %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 30ms", d)
	}
}

func TestPanicAction(t *testing.T) {
	p := testPoint(t)
	if err := Enable(p.Name(), "panic(kaboom)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "kaboom") {
			t.Fatalf("panic value %v, want injected message", r)
		}
	}()
	p.Inject()
}

func TestShortWriteAction(t *testing.T) {
	p := testPoint(t)
	if err := Enable(p.Name(), "1*shortwrite(5)"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := p.Writer(&buf)
	if w == &buf {
		t.Fatal("armed Writer returned the raw writer")
	}
	n, err := w.Write([]byte("0123456789"))
	if n != 5 || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = (%d, %v), want (5, ErrInjected)", n, err)
	}
	if buf.String() != "01234" {
		t.Fatalf("underlying got %q, want torn prefix", buf.String())
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-exhaustion write error = %v", err)
	}
	// Budget of 1 means the next Writer call is a pass-through again.
	if got := p.Writer(io.Discard); got != io.Discard {
		t.Fatal("second Writer call still wrapped")
	}
	// Inject on a shortwrite-armed point is a no-op (nil).
	if err := Enable(p.Name(), "shortwrite(0)"); err != nil {
		t.Fatal(err)
	}
	if err := p.Inject(); err != nil {
		t.Fatalf("shortwrite Inject = %v, want nil", err)
	}
}

func TestEnableUnknownAndBadSpecs(t *testing.T) {
	if err := Enable("no.such.point", "error"); err == nil {
		t.Fatal("unknown point accepted")
	}
	p := testPoint(t)
	for _, spec := range []string{"", "explode", "0*error", "-1*error", "delay(nope)", "delay", "shortwrite(x)", "error(unclosed"} {
		if err := Enable(p.Name(), spec); err == nil {
			t.Fatalf("bad spec %q accepted", spec)
		}
	}
}

func TestEnableSpecsListAndDisable(t *testing.T) {
	a := New("test.list.a")
	b := New("test.list.b")
	t.Cleanup(func() { a.armed.Store(nil); b.armed.Store(nil) })
	if err := EnableSpecs("test.list.a=error(x); test.list.b = 3*delay(1ms)"); err != nil {
		t.Fatal(err)
	}
	if a.armed.Load() == nil || b.armed.Load() == nil {
		t.Fatal("list spec did not arm both points")
	}
	var st *Status
	for _, s := range List() {
		if s.Name == "test.list.b" {
			st = &s
			break
		}
	}
	if st == nil || st.Spec != "3*delay(1ms)" {
		t.Fatalf("List status = %+v, want armed spec", st)
	}
	if !Disable("test.list.a") {
		t.Fatal("Disable unknown")
	}
	if a.armed.Load() != nil {
		t.Fatal("Disable left point armed")
	}
	if err := EnableSpecs("garbage"); err == nil {
		t.Fatal("malformed list accepted")
	}
	if err := EnableSpecs(""); err != nil {
		t.Fatalf("empty list = %v", err)
	}
}

func TestNewIsIdempotent(t *testing.T) {
	p1 := New("test.idempotent")
	p2 := New("test.idempotent")
	if p1 != p2 {
		t.Fatal("New split one site into two points")
	}
}

// BenchmarkInjectDisabled pins the zero-overhead contract: a disabled
// failpoint on a hot path is one atomic load and zero allocations.
func BenchmarkInjectDisabled(b *testing.B) {
	p := New("bench.disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Inject(); err != nil {
			b.Fatal(err)
		}
	}
}
