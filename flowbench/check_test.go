package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"repro/internal/netflow"
	"repro/internal/rollup"
)

func newTestBench() *bench {
	b := &bench{workload: "test"}
	b.res.Metrics = make(map[string]metric)
	return b
}

func hashOf(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// smallReplay is a replay input small enough for a unit test.
func smallReplay(t *testing.T) *replaySetup {
	t.Helper()
	in, err := newInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	s := &replaySetup{in: in, inp: in.buildReplay(replayStart, 12, replayStepLen, 40, 400), long: longChains(in)}
	s.ref = s.syncPass()
	return s
}

func cloneWindows(ws []rollup.Window) []rollup.Window {
	out := make([]rollup.Window, len(ws))
	for i, w := range ws {
		out[i] = w
		out[i].Rows = append([]rollup.Row(nil), w.Rows...)
	}
	return out
}

func TestReplayCheckPassesOnThePipeline(t *testing.T) {
	s := smallReplay(t)
	b := newTestBench()
	b.checkPass(0, s.pass(nil), s.ref.windows, s.long)
	if len(b.problems) != 0 {
		t.Fatalf("pipeline pass rejected: %v", b.problems)
	}
}

func TestReplayCheckBites(t *testing.T) {
	s := smallReplay(t)
	full := passResult{windows: s.ref.windows, offered: 10, delivered: 10}

	// One flow withheld from the input.
	withheld := *s
	inp := *s.inp
	inp.flows = append([]cflow(nil), s.inp.flows...)
	inp.flows = append(inp.flows[:5], inp.flows[6:]...)
	inp.stepFlows = append([]uint32(nil), s.inp.stepFlows...)
	for i := 1; i < len(inp.stepFlows); i++ {
		inp.stepFlows[i]--
	}
	withheld.inp = &inp
	short := passResult{windows: withheld.syncPass().windows, offered: 10, delivered: 10}

	// One row altered by one byte, and one row missing.
	altered := cloneWindows(s.ref.windows)
	altered[0].Rows[0].Bytes++
	missing := cloneWindows(s.ref.windows)
	missing[1].Rows = missing[1].Rows[1:]

	// A row of a chain longer than the walk limit, altered.
	longAltered := cloneWindows(s.ref.windows)
	found := false
	for wi := range longAltered {
		for ri := range longAltered[wi].Rows {
			if _, ok := s.long[longAltered[wi].Rows[ri].Service]; ok && !found {
				longAltered[wi].Rows[ri].Flows--
				found = true
			}
		}
	}

	cases := map[string]passResult{
		"flow withheld":     short,
		"row altered":       {windows: altered, offered: 10, delivered: 10},
		"row withheld":      {windows: missing, offered: 10, delivered: 10},
		"flow not received": {windows: s.ref.windows, offered: 10, delivered: 9},
	}
	if found {
		cases["long-chain row altered"] = passResult{windows: longAltered, offered: 10, delivered: 10}
	}
	b := newTestBench()
	b.checkPass(0, full, s.ref.windows, s.long)
	if len(b.problems) != 0 {
		t.Fatalf("identical windows rejected: %v", b.problems)
	}
	for name, r := range cases {
		b := newTestBench()
		b.checkPass(0, r, s.ref.windows, s.long)
		if len(b.problems) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
}

// wireFixture sends nothing: it builds a small plan, stamps it as sent at
// t0, and renders the TSV rows a correct daemon would write for it.
func wireFixture(t *testing.T) (*wirePlan, schedule, time.Time, []string) {
	t.Helper()
	in, err := newInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := in.buildWirePlan(time.Now(), 20_000, time.Millisecond, 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule{plan: p, slotTicks: 1}
	t0 := time.Unix(1_700_000_000, 0)
	cache := netflow.NewTemplateCache()
	var rows []string
	for i := range p.dgs {
		pkt := p.packet(i)
		due := t0.Add(s.due(i))
		stampDatagram(pkt, &p.dgs[i], due.UnixMilli())
		dp, err := netflow.DecodeV9(pkt, cache)
		if err != nil {
			t.Fatal(err)
		}
		for k, fr := range dp.Records {
			if !fr.Timestamp.Equal(due) || fr.Packets != uint64(p.dgs[i].first)+uint64(k)+1 {
				t.Fatalf("datagram %d record %d: ts %v tag %d", i, k, fr.Timestamp, fr.Packets)
			}
			name := "NULL"
			if k%3 == 0 {
				name = fmt.Sprintf("svc%d.example", k%5)
			}
			rows = append(rows, fmt.Sprintf("%d\t%s\t%s\t%d\t%d\t%s\tactive\t0\n",
				fr.Timestamp.Unix(), fr.SrcIP, fr.DstIP, fr.Bytes, fr.Packets, name))
		}
	}
	return p, s, t0, rows
}

func readRows(s schedule, t0 time.Time, rows []string) *rowReader {
	in, _ := newInputs(3)
	rr := newRowReader(s, in.list)
	rr.t0.Store(t0.UnixNano())
	rr.run(strings.NewReader(strings.Join(rows, "")))
	return rr
}

func TestWireChecksBite(t *testing.T) {
	p, s, t0, rows := wireFixture(t)
	full := readRows(s, t0, rows)
	if full.bad != 0 || full.dup != 0 || full.rows.Load() != int64(len(p.flows)) {
		t.Fatalf("correct rows: bad %d dup %d rows %d of %d (%s)", full.bad, full.dup, full.rows.Load(), len(p.flows), full.firstBad)
	}
	b := newTestBench()
	if n := b.ledger(p, full.arrive, 0, 0); n != 0 || len(b.problems) != 0 {
		t.Fatalf("complete delivery: %d unattributed, %v", n, b.problems)
	}
	// The daemon's answer for the whole run, per service.
	q := qreq{dim: 0, from: t0.Unix(), to: t0.Unix() + 1}
	daemonBody := fromMap(full.windows).body(q)
	answer := []qresult{{req: q, status: 200, hash: hashOf(daemonBody), checkable: true}}
	if _, probs := checkResponses(fromMap(full.windows), answer); len(probs) != 0 {
		t.Fatalf("matching body rejected: %v", probs)
	}

	// One row withheld: the ledger cannot attribute it, and the rows no
	// longer add up to the daemon's /query/services totals.
	short := readRows(s, t0, append(append([]string(nil), rows[:7]...), rows[8:]...))
	b = newTestBench()
	if n := b.ledger(p, short.arrive, 0, 0); n != 1 {
		t.Errorf("withheld row: %d unattributed, want 1", n)
	}
	if _, probs := checkResponses(fromMap(short.windows), answer); len(probs) == 0 {
		t.Error("withheld row: query totals still match")
	}
	// A queue drop explains it.
	b = newTestBench()
	if n := b.ledger(p, short.arrive, 0, 1); n != 0 {
		t.Errorf("withheld row with a counted queue drop: %d unattributed", n)
	}

	// One row altered.
	altered := append([]string(nil), rows...)
	f := strings.Split(altered[3], "\t")
	f[3] += "1"
	altered[3] = strings.Join(f, "\t")
	if rr := readRows(s, t0, altered); rr.bad != 1 {
		t.Errorf("altered row: %d rejected, want 1", rr.bad)
	}
	// One row repeated.
	if rr := readRows(s, t0, append(rows, rows[0])); rr.dup != 1 {
		t.Errorf("repeated row: %d duplicates, want 1", rr.dup)
	}
}

func TestQueryBodyCheckBites(t *testing.T) {
	s := smallReplay(t)
	exp := fromWindows(s.ref.windows)
	lo := replayStart.Unix()
	for _, q := range []qreq{
		{dim: 0, from: lo, to: lo + 600, step: 60, top: 5},
		{dim: 1, from: lo + 60, to: lo + 300},
		{dim: 2, from: lo, to: lo + 480, step: 120, top: 2},
	} {
		body := exp.body(q)
		ok := []qresult{{req: q, status: 200, hash: hashOf(body), checkable: true}}
		if _, probs := checkResponses(exp, ok); len(probs) != 0 {
			t.Fatalf("%s: canonical body rejected: %v", q.path(), probs)
		}
		for name, bad := range map[string][]byte{
			"byte altered":  append(append(append([]byte(nil), body[:len(body)/2]...), body[len(body)/2]^1), body[len(body)/2+1:]...),
			"byte withheld": body[:len(body)-1],
		} {
			res := []qresult{{req: q, status: 200, hash: hashOf(bad), checkable: true}}
			if _, probs := checkResponses(exp, res); len(probs) == 0 {
				t.Errorf("%s: %s passed", q.path(), name)
			}
		}
		if _, probs := checkResponses(exp, []qresult{{req: q, status: 500, hash: hashOf(body)}}); len(probs) == 0 {
			t.Errorf("%s: a 500 passed", q.path())
		}
	}
}

// The expected body must equal what the query plane itself serves for the
// same windows; TestQueryBodyCheckBites only shows it is sensitive.
func TestExpectedBodyMatchesQueryPlane(t *testing.T) {
	s := smallReplay(t)
	b := newTestBench()
	b.dir = t.TempDir()
	srv, err := serveWindows(b, s.ref.windows)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	lo := replayStart.Unix()
	hi := lo + int64(12*replayStepLen/time.Second)
	res, err := runQueries(srv.base, queryClients, newMix(lo, hi, 60, nil), 1, time.Now().Add(time.Minute), 300, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, probs := checkResponses(fromWindows(s.ref.windows), res); len(probs) != 0 || n == 0 {
		t.Fatalf("%d distinct requests, problems: %v", n, probs)
	}
}
