package stream

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// writeOneFrame sends a single valid DNS response frame down w.
func writeOneFrame(t *testing.T, w net.Conn) {
	t.Helper()
	sink := NewDNSTCPSink(w)
	if err := sink.Send(responseAB(t)); err != nil {
		t.Fatal(err)
	}
}

// TestDNSTCPIdleTimeout proves a resolver stream that goes silent is
// closed after IdleTimeout — the read goroutine is released, the close is
// counted in Stats.Timeouts, and the frames read before the silence were
// processed normally.
func TestDNSTCPIdleTimeout(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	src := NewDNSTCPSource(server)
	src.IdleTimeout = 50 * time.Millisecond
	in := newTestIngest(64, 64)

	done := make(chan error, 1)
	go func() { done <- src.Run(context.Background(), in) }()
	writeOneFrame(t, client)
	// ...and then the peer wedges: no close, no more frames.
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "idle") {
			t.Fatalf("Run = %v, want idle-timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle timeout never fired; read goroutine still pinned")
	}
	st := src.Stats()
	if st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
	if st.Frames != 1 || st.Records != 2 {
		t.Fatalf("frames/records = %d/%d, want 1/2 (pre-silence traffic lost?)", st.Frames, st.Records)
	}
}

// TestDNSTCPNoTimeoutWhenTrafficFlows proves the deadline is per-frame: a
// stream slower than IdleTimeout overall but never silent longer than it
// stays open.
func TestDNSTCPNoTimeoutWhenTrafficFlows(t *testing.T) {
	client, server := net.Pipe()
	src := NewDNSTCPSource(server)
	src.IdleTimeout = 250 * time.Millisecond
	in := newTestIngest(64, 64)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()
	for i := 0; i < 4; i++ {
		writeOneFrame(t, client)
		time.Sleep(60 * time.Millisecond) // total > IdleTimeout, gaps < it
	}
	cancel()
	client.Close()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want clean end", err)
	}
	st := src.Stats()
	if st.Timeouts != 0 || st.Frames != 4 {
		t.Fatalf("stats = %+v, want 4 frames and no timeouts", st)
	}
}

// TestDNSListenerIdleTimeoutPropagates proves the listener hands the knob
// to every accepted stream, a wedged stream dies without taking the
// listener down, and the timeout shows in the aggregated stats.
func TestDNSListenerIdleTimeoutPropagates(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewDNSListener(ln)
	l.IdleTimeout = 50 * time.Millisecond
	// Run bumps Timeouts before the listener goroutine reports the stream
	// error, so the test waits on the callback itself, not the counter. The
	// buffer leaves room for unexpected extra errors, so the listener never
	// blocks on the callback and the test can count them.
	streamErrs := make(chan error, 4)
	l.OnStreamError = func(err error) { streamErrs <- err }
	in := newTestIngest(64, 64)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- l.Run(ctx, in) }()

	// A client that connects and never sends: reaped by the idle bound.
	wedged, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	deadline := time.Now().Add(5 * time.Second)
	select {
	case <-streamErrs:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged stream never reported an error")
	}
	if st := l.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
	if n := len(streamErrs); n != 0 {
		t.Fatalf("OnStreamError calls = %d, want 1", n+1)
	}

	// The listener survived: a healthy client still gets through.
	healthy, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	writeOneFrame(t, healthy)
	for l.Stats().Frames == 0 {
		if time.Now().After(deadline) {
			t.Fatal("listener stopped serving after an idle reap")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("listener Run = %v", err)
	}
}

// TestDNSTCPReadFailpoint proves the stream.dns.read site ends a stream
// with injection provenance intact.
func TestDNSTCPReadFailpoint(t *testing.T) {
	defer fault.DisableAll()
	client, server := net.Pipe()
	defer client.Close()
	src := NewDNSTCPSource(server)
	if err := fault.Enable("stream.dns.read", "1*error(peer reset)"); err != nil {
		t.Fatal(err)
	}
	err := src.Run(context.Background(), newTestIngest(4, 4))
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Run = %v, want injected read error", err)
	}
}

// fakeBatchRing is a scripted batchConnReader: each read() returns the
// next batch of datagrams, then the script's terminal error.
type fakeBatchRing struct {
	batches [][][]byte
	final   error
	i       int
	last    [][]byte
}

func (f *fakeBatchRing) read() (int, error) {
	if f.i >= len(f.batches) {
		return 0, f.final
	}
	f.last = f.batches[f.i]
	f.i++
	return len(f.last), nil
}

func (f *fakeBatchRing) packet(i int) []byte { return f.last[i] }

// swapBatchReader installs fn as the batch-reader constructor for one test.
func swapBatchReader(t *testing.T, fn func(net.PacketConn, int, int) batchConnReader) {
	t.Helper()
	old := newBatchReaderFn
	newBatchReaderFn = fn
	t.Cleanup(func() { newBatchReaderFn = old })
}

// TestFlowUDPBatchedLoopViaSeam exercises the batched drain loop on every
// platform: a scripted ring stands in for recvmmsg, so the loop's decode,
// accounting, and clean-shutdown behavior is covered even where the real
// syscall path cannot build.
func TestFlowUDPBatchedLoopViaSeam(t *testing.T) {
	ring := &fakeBatchRing{
		batches: [][][]byte{
			{v5Datagram(t, 5), v5Datagram(t, 3)},
			{v5Datagram(t, 2), []byte{0xde, 0xad}}, // one good, one runt
		},
		final: net.ErrClosed,
	}
	swapBatchReader(t, func(net.PacketConn, int, int) batchConnReader { return ring })

	src := NewFlowUDPSource(newScriptedPacketConn(nil))
	src.BatchSize = 8
	in := newTestIngest(16, 1<<10)
	if err := src.Run(context.Background(), in); err != nil {
		t.Fatalf("Run = %v, want clean end on closed socket", err)
	}
	st := src.Stats()
	if st.Frames != 4 || st.Records != 10 || st.DecodeError != 1 {
		t.Fatalf("stats = %+v, want 4 frames / 10 records / 1 decode error", st)
	}
	if got := in.flow.Stats().Enqueued; got != 10 {
		t.Fatalf("enqueued = %d, want 10", got)
	}
}

// TestFlowUDPRuntimeDegradation exercises the runtime recvmmsg-degradation
// branch build-tag-independently: the ring reports errBatchUnsupported on
// its first read (a kernel rejecting the syscall), and the source must
// degrade to the single-read loop on the same socket without losing a
// datagram or surfacing an error.
func TestFlowUDPRuntimeDegradation(t *testing.T) {
	ring := &fakeBatchRing{final: errBatchUnsupported}
	swapBatchReader(t, func(net.PacketConn, int, int) batchConnReader { return ring })

	pkts := [][]byte{v5Datagram(t, 4), v5Datagram(t, 6)}
	conn := newScriptedPacketConn(pkts)
	src := NewFlowUDPSource(conn)
	src.BatchSize = 8
	in := newTestIngest(16, 1<<10)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, in) }()
	deadline := time.Now().Add(5 * time.Second)
	for src.Stats().Records < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("degraded loop stalled: stats = %+v", src.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v", err)
	}
	if ring.i != 0 {
		// read() consumed no scripted batches; it only reported unsupported.
		t.Fatalf("ring consumed %d batches after degradation", ring.i)
	}
	st := src.Stats()
	if st.Frames != 2 || st.Records != 10 || st.DecodeError != 0 {
		t.Fatalf("stats = %+v, want 2 frames / 10 records via the single loop", st)
	}
}

// TestFlowUDPReadFailpoint proves the stream.udp.read site surfaces with
// provenance from the single-read loop.
func TestFlowUDPReadFailpoint(t *testing.T) {
	defer fault.DisableAll()
	src := NewFlowUDPSource(newScriptedPacketConn(nil))
	src.BatchSize = 1 // force the single-read loop
	if err := fault.Enable("stream.udp.read", "1*error(socket gone)"); err != nil {
		t.Fatal(err)
	}
	err := src.Run(context.Background(), newTestIngest(4, 4))
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Run = %v, want injected read error", err)
	}
}
