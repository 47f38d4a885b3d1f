package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dbl"
	"repro/internal/rollup"
)

// The three /query dimensions.
var dimNames = [3]string{"services", "asns", "categories"}

// qreq is one /query request; comparable, so it is also the cache key the
// server derives from the same tuple.
type qreq struct {
	dim            int
	from, to, step int64 // unix seconds; step 0 = one bucket
	top            int
}

func (q qreq) path() string {
	s := fmt.Sprintf("/query/%s?from=%d&to=%d", dimNames[q.dim], q.from, q.to)
	if q.step > 0 {
		s += "&step=" + strconv.FormatInt(q.step, 10)
	}
	if q.top > 0 {
		s += "&top=" + strconv.Itoa(q.top)
	}
	return s
}

// qmix draws a seeded mix of requests: fixed dashboard tuples (served from
// the cache after their first request), ad-hoc ranges (misses that
// materialize), and, when live ranges are configured, ranges that reach
// into the partition being written (invalidated by every seal). Dashboards
// and ad-hoc ranges stay inside [lo, hi), whose windows are known exactly.
type qmix struct {
	lo, hi, unit int64
	dash         []qreq
	live         []qreq
}

// Shares of the mix: dashboards, then live ranges when there are any; the
// rest are ad-hoc. Hits and misses differ tenfold in latency, so the
// dashboard share keeps the median well inside the hits: at half, the
// median flipped between the two from run to run.
const (
	pDash = 0.7
	pLive = 0.1
)

func newMix(lo, hi, unit int64, live []qreq) *qmix {
	m := &qmix{lo: lo, hi: hi, unit: unit, live: live}
	span := hi - lo
	step := max(unit, (span/12)/unit*unit)
	tail := hi - max(unit, (span/4)/unit*unit)
	for d := range dimNames {
		m.dash = append(m.dash, qreq{dim: d, from: lo, to: hi, step: step, top: 10}, qreq{dim: d, from: tail, to: hi, top: 20})
	}
	return m
}

// next draws one request; checkable reports whether its range lies inside
// the exactly known windows.
func (m *qmix) next(r *rand.Rand) (q qreq, checkable bool) {
	u := r.Float64()
	switch {
	case u < pDash:
		return m.dash[r.Intn(len(m.dash))], true
	case u < pDash+pLive && len(m.live) > 0:
		return m.live[r.Intn(len(m.live))], false
	}
	n := (m.hi - m.lo) / m.unit
	a := r.Int63n(n)
	b := a + 1 + r.Int63n(n-a)
	q = qreq{dim: r.Intn(3), from: m.lo + a*m.unit, to: m.lo + b*m.unit, top: []int{5, 10, 25}[r.Intn(3)]}
	for _, k := range []int64{1, 5, 15, 60} {
		if s := k * m.unit; (q.to-q.from)/s <= 24 && r.Intn(2) == 0 {
			q.step = s
			break
		}
	}
	return q, true
}

// qresult is one answered request.
type qresult struct {
	req       qreq
	done      time.Time
	lat       time.Duration
	status    int
	size      int
	hash      uint64
	checkable bool
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// doQuery issues one GET and reads the whole body.
func doQuery(c *http.Client, base string, q qreq, buf []byte) (qresult, []byte, error) {
	t0 := time.Now()
	resp, err := c.Get(base + q.path())
	if err != nil {
		return qresult{}, buf, err
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return qresult{}, buf, err
		}
	}
	resp.Body.Close()
	h := fnv.New64a()
	h.Write(buf)
	done := time.Now()
	return qresult{req: q, done: done, lat: done.Sub(t0), status: resp.StatusCode, size: len(buf), hash: h.Sum64()}, buf, nil
}

// runQueries drives clients HTTP clients until stop is reached or limit
// requests have been answered in total (limit 0 = no limit), counting
// every answer in answered when it is not nil. With every 0 each client
// sends its next request when the last is answered; otherwise each sends
// one request every interval (a late answer delays the next request) and
// latency runs from the request's due time.
func runQueries(base string, clients int, mix *qmix, seed int64, stop time.Time, limit int64, answered *atomic.Int64, every time.Duration) ([]qresult, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		all   []qresult
		count atomic.Int64
		first error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			r := rand.New(rand.NewSource(seed*31 + int64(i)))
			var mine []qresult
			var buf []byte
			due := time.Now().Add(every * time.Duration(i) / time.Duration(clients))
			for time.Now().Before(stop) && (limit == 0 || count.Add(1) <= limit) {
				q, ok := mix.next(r)
				if every > 0 {
					time.Sleep(time.Until(due))
				}
				res, b, err := doQuery(c, base, q, buf)
				if every > 0 {
					res.lat = res.done.Sub(due)
					due = due.Add(every)
				}
				buf = b
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				res.checkable = ok
				mine = append(mine, res)
				if answered != nil {
					answered.Add(1)
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return all, first
}

// counters are the summed counters of one key.
type counters struct{ bytes, packets, flows uint64 }

// expWindow is one window of the exactly known data, aggregated per
// dimension key.
type expWindow struct {
	start, dur int64
	dims       [3]map[string]*counters
}

func newExpWindow(start, dur int64) *expWindow {
	w := &expWindow{start: start, dur: dur}
	for d := range w.dims {
		w.dims[d] = make(map[string]*counters)
	}
	return w
}

// add folds one (service, asn, category) row into the window.
func (w *expWindow) add(service string, asn uint32, cat dbl.Category, c counters) {
	if service == "" {
		service = "NULL"
	}
	w.addKeys([3]string{service, strconv.FormatUint(uint64(asn), 10), cat.String()}, c)
}

// addKeys folds counters into the window under one key per dimension.
func (w *expWindow) addKeys(keys [3]string, c counters) {
	for d, key := range keys {
		e := w.dims[d][key]
		if e == nil {
			e = new(counters)
			w.dims[d][key] = e
		}
		e.bytes += c.bytes
		e.packets += c.packets
		e.flows += c.flows
	}
}

// expected is the exactly known content of the window store over a range,
// from which the canonical body of any /query request is derived
// independently of the server.
type expected struct {
	ws []*expWindow // sorted by start
}

// fromWindows builds the expectation from sealed rollup windows.
func fromWindows(windows []rollup.Window) *expected {
	byStart := make(map[int64]*expWindow)
	for i := range windows {
		w := &windows[i]
		ew := byStart[w.Start.Unix()]
		if ew == nil {
			ew = newExpWindow(w.Start.Unix(), int64(w.Dur/time.Second))
			byStart[ew.start] = ew
		}
		for _, r := range w.Rows {
			ew.add(r.Service, r.ASN, r.Category, counters{r.Bytes, r.Packets, r.Flows})
		}
	}
	return fromMap(byStart)
}

func fromMap(byStart map[int64]*expWindow) *expected {
	e := &expected{}
	for _, w := range byStart {
		e.ws = append(e.ws, w)
	}
	sort.Slice(e.ws, func(i, j int) bool { return e.ws[i].start < e.ws[j].start })
	return e
}

// The /query response wire shape.
type seriesEntry struct {
	Key     string `json:"key"`
	Other   bool   `json:"other,omitempty"`
	Bytes   uint64 `json:"bytes"`
	Packets uint64 `json:"packets"`
	Flows   uint64 `json:"flows"`
}

type bucketJSON struct {
	Start  int64         `json:"start"`
	Series []seriesEntry `json:"series"`
}

type queryJSON struct {
	Dimension string       `json:"dimension"`
	From      int64        `json:"from"`
	To        int64        `json:"to"`
	StepSecs  int64        `json:"step_secs"`
	Top       int          `json:"top,omitempty"`
	Buckets   []bucketJSON `json:"buckets"`
}

// body returns the canonical response body for q: windows overlapping
// [from, to) summed per key into step-aligned buckets, series sorted by
// bytes descending then key, the tail beyond top folded into OTHER.
func (e *expected) body(q qreq) []byte {
	resp := queryJSON{Dimension: dimNames[q.dim], From: q.from, To: q.to, Top: q.top, StepSecs: q.step}
	if q.step <= 0 {
		resp.StepSecs = max(q.to-q.from, 1)
	}
	buckets := make(map[int64]map[string]*seriesEntry)
	for _, w := range e.ws {
		if w.start >= q.to || w.start+w.dur <= q.from {
			continue
		}
		bs := q.from
		if q.step > 0 {
			bs = w.start - ((w.start%q.step)+q.step)%q.step
		}
		a := buckets[bs]
		if a == nil {
			a = make(map[string]*seriesEntry)
			buckets[bs] = a
		}
		for key, c := range w.dims[q.dim] {
			s := a[key]
			if s == nil {
				s = &seriesEntry{Key: key}
				a[key] = s
			}
			s.Bytes += c.bytes
			s.Packets += c.packets
			s.Flows += c.flows
		}
	}
	starts := make([]int64, 0, len(buckets))
	for bs := range buckets {
		starts = append(starts, bs)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	resp.Buckets = make([]bucketJSON, 0, len(starts))
	for _, bs := range starts {
		series := make([]seriesEntry, 0, len(buckets[bs]))
		for _, s := range buckets[bs] {
			series = append(series, *s)
		}
		sort.Slice(series, func(i, j int) bool {
			if series[i].Bytes != series[j].Bytes {
				return series[i].Bytes > series[j].Bytes
			}
			return series[i].Key < series[j].Key
		})
		if q.top > 0 && len(series) > q.top {
			other := seriesEntry{Key: "OTHER", Other: true}
			for _, s := range series[q.top:] {
				other.Bytes += s.Bytes
				other.Packets += s.Packets
				other.Flows += s.Flows
			}
			series = append(series[:q.top], other)
		}
		resp.Buckets = append(resp.Buckets, bucketJSON{Start: bs, Series: series})
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and integers always marshal
	}
	return append(body, '\n')
}

// checkResponses compares every checkable response with the canonical body
// derived from exp, and requires every response to be a 200. It returns
// the number of distinct requests checked and one line per mismatch.
func checkResponses(exp *expected, results []qresult) (checked int, problems []string) {
	want := make(map[qreq]uint64)
	for _, r := range results {
		if r.status != http.StatusOK {
			problems = append(problems, fmt.Sprintf("%s: status %d", r.req.path(), r.status))
			continue
		}
		if !r.checkable {
			continue
		}
		h, ok := want[r.req]
		if !ok {
			f := fnv.New64a()
			f.Write(exp.body(r.req))
			h = f.Sum64()
			want[r.req] = h
		}
		if r.hash != h && len(problems) < 20 {
			problems = append(problems, fmt.Sprintf("%s: body differs from the known windows", r.req.path()))
		}
	}
	return len(want), problems
}
