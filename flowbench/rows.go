package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dbl"
)

// schedule maps a wire plan onto wall time: slot s starts at t0 + s·slot.
// Paced sends every tick as its own slot; burst groups slotTicks ticks and
// sends them back to back at the slot start, as an exporter flush does.
type schedule struct {
	plan      *wirePlan
	slotTicks int
}

// due returns datagram i's due time as an offset from t0.
func (s schedule) due(i int) time.Duration {
	t := int(s.plan.dgs[i].tick)
	return time.Duration(t/s.slotTicks*s.slotTicks) * s.plan.tick
}

// sendStats is what the single-goroutine sender observed.
type sendStats struct {
	lateMs    []float64 // per slot: start minus due
	datagrams int
	dnsFrames int
	errs      int
	firstErr  error
}

// send runs the open loop: at each slot's due time, the slot's DNS frames
// go out on the TCP stream, then its datagrams on the UDP socket, each
// stamped with its due time. A slot that starts late is not skipped; its
// lateness is recorded.
func send(s schedule, t0 time.Time, udp, tcp net.Conn) sendStats {
	p := s.plan
	var st sendStats
	for first := 0; first < p.ticks; first += s.slotTicks {
		last := min(first+s.slotTicks, p.ticks)
		due := t0.Add(time.Duration(first) * p.tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.lateMs = append(st.lateMs, ms(time.Since(due)))
		note := func(err error) {
			if err != nil {
				st.errs++
				if st.firstErr == nil {
					st.firstErr = err
				}
			}
		}
		if frames := p.dns[p.dnsByTick[first]:p.dnsByTick[last]]; len(frames) > 0 {
			_, err := tcp.Write(frames)
			note(err)
		}
		dueMs := due.UnixMilli()
		for i := int(p.dgByTick[first]); i < int(p.dgByTick[last]); i++ {
			pkt := p.packet(i)
			stampDatagram(pkt, &p.dgs[i], dueMs)
			_, err := udp.Write(pkt)
			note(err)
			st.datagrams++
		}
	}
	for t := 0; t < p.ticks; t++ {
		st.dnsFrames += countFrames(p.dns[p.dnsByTick[t]:p.dnsByTick[t+1]])
	}
	return st
}

func countFrames(b []byte) int {
	n := 0
	for len(b) >= 2 {
		l := int(b[0])<<8 | int(b[1])
		b = b[min(len(b), 2+l):]
		n++
	}
	return n
}

// rowReader consumes the daemon's TSV output. The packet counter of every
// row is the flow's sequence tag, which maps the row back to the flow that
// was sent: its due time (for latency), its bytes and record time (which
// the row must reproduce) and its origin AS. Rows are aggregated into
// one-second windows per dimension, which is exactly what the daemon's
// rollups must have sealed into the window store.
type rowReader struct {
	sched schedule
	list  *dbl.List
	t0    atomic.Int64 // schedule origin, unix ns; set before the first send

	arrive []int64 // per sequence: arrival ns after t0 (0 = not seen)
	rows   atomic.Int64

	windows             map[int64]*expWindow
	corrBytes, allBytes uint64
	bad, dup            int
	firstBad            string
	names               map[string]string
	cats                map[string]string
	asns                map[uint32]string
	err                 error
	done                chan struct{}
}

func newRowReader(s schedule, list *dbl.List) *rowReader {
	return &rowReader{
		sched: s, list: list,
		arrive:  make([]int64, len(s.plan.flows)),
		windows: make(map[int64]*expWindow),
		names:   make(map[string]string),
		cats:    make(map[string]string),
		asns:    make(map[uint32]string),
		done:    make(chan struct{}),
	}
}

// run reads rows until EOF.
func (rr *rowReader) run(r io.Reader) {
	defer close(rr.done)
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			rr.row(line, time.Now())
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			rr.err = err
			return
		}
	}
}

func (rr *rowReader) reject(format string, args ...any) {
	rr.bad++
	if rr.firstBad == "" {
		rr.firstBad = fmt.Sprintf(format, args...)
	}
}

// row checks and aggregates one TSV line:
// ts, src, dst, bytes, packets, name, tier, chain.
func (rr *rowReader) row(line []byte, now time.Time) {
	var f [8][]byte
	n := 0
	for n < 7 {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			break
		}
		f[n], line = line[:i], line[i+1:]
		n++
	}
	f[7] = bytes.TrimRight(line, "\n")
	if n != 7 {
		rr.reject("row with %d fields", n+1)
		return
	}
	ts, ok1 := atou(f[0])
	nbytes, ok2 := atou(f[3])
	tag, ok3 := atou(f[4])
	if !ok1 || !ok2 || !ok3 || tag == 0 || tag > uint64(len(rr.arrive)) {
		rr.reject("unparsable row %q", f[:])
		return
	}
	seq := int(tag - 1)
	fi := &rr.sched.plan.flows[seq]
	t0 := rr.t0.Load()
	dueSec := (time.Duration(t0) + rr.sched.due(int(fi.dg))).Milliseconds() / 1000
	if nbytes != fi.bytes || int64(ts) != dueSec {
		rr.reject("row for flow %d: bytes %d ts %d, sent bytes %d ts %d", seq, nbytes, ts, fi.bytes, dueSec)
		return
	}
	if rr.arrive[seq] != 0 {
		rr.dup++
		return
	}
	rr.arrive[seq] = max(now.UnixNano()-t0, 1)
	rr.rows.Add(1)

	name, ok := rr.names[string(f[5])]
	if !ok {
		name = string(f[5])
		rr.names[name] = name
		cat := dbl.Benign
		if name != "NULL" {
			cat = rr.list.Lookup(name)
		}
		rr.cats[name] = cat.String()
	}
	asn, ok := rr.asns[fi.asn]
	if !ok {
		asn = strconv.FormatUint(uint64(fi.asn), 10)
		rr.asns[fi.asn] = asn
	}
	w := rr.windows[int64(ts)]
	if w == nil {
		w = newExpWindow(int64(ts), 1)
		rr.windows[int64(ts)] = w
	}
	w.addKeys([3]string{name, asn, rr.cats[name]}, counters{nbytes, tag, 1})
	rr.allBytes += nbytes
	if name != "NULL" {
		rr.corrBytes += nbytes
	}
}

// atou parses a decimal field without allocating.
func atou(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}
