package rollup

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dbl"
)

func TestHandlerSnapshot(t *testing.T) {
	eng := New(time.Minute, 2)
	eng.Observe(0, t0, Key{Service: "svc.example", ASN: 64500}, 1000, 10)
	eng.Observe(1, t0, Key{Service: "svc.example", ASN: 64500}, 500, 5)
	eng.Observe(1, t0, Key{Service: "bad.example", Category: dbl.Spam}, 9, 1)

	rec := httptest.NewRecorder()
	SnapshotHandler(eng, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rollups", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var resp struct {
		WindowSecs int64 `json:"window_secs"`
		Shards     int   `json:"shards"`
		Windows    []struct {
			Start int64 `json:"start"`
			Secs  int64 `json:"secs"`
			Rows  []struct {
				Service  string `json:"service"`
				ASN      uint32 `json:"asn"`
				Category string `json:"category"`
				Bytes    uint64 `json:"bytes"`
				Flows    uint64 `json:"flows"`
			} `json:"rows"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.WindowSecs != 60 || resp.Shards != 2 {
		t.Fatalf("meta = %d/%d", resp.WindowSecs, resp.Shards)
	}
	if len(resp.Windows) != 1 || len(resp.Windows[0].Rows) != 2 {
		t.Fatalf("windows = %+v", resp.Windows)
	}
	// Shard partials merged: 1000+500 under one key.
	var svcBytes uint64
	for _, r := range resp.Windows[0].Rows {
		if r.Service == "svc.example" && r.ASN == 64500 {
			svcBytes = r.Bytes
		}
		if r.Service == "bad.example" && r.Category != "spam" {
			t.Fatalf("category label = %q", r.Category)
		}
	}
	if svcBytes != 1500 {
		t.Fatalf("svc bytes = %d, want 1500 (cross-shard merge)", svcBytes)
	}

	// Snapshots must not consume: a second GET sees the same state.
	rec2 := httptest.NewRecorder()
	SnapshotHandler(eng, nil).ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/rollups", nil))
	if rec2.Body.String() != rec.Body.String() {
		t.Fatal("second snapshot differs (handler consumed state)")
	}
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	rec := httptest.NewRecorder()
	SnapshotHandler(New(time.Minute, 1), nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rollups", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
}
