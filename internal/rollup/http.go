package rollup

import (
	"encoding/json"
	"net/http"
)

// snapshotResponse is the wire shape of the /rollups endpoint: the engine
// parameters plus every live (unsealed) window, merged across shards.
type snapshotResponse struct {
	WindowSecs int64        `json:"window_secs"`
	Shards     int          `json:"shards"`
	Windows    []jsonWindow `json:"windows"`
}

// SnapshotHandler serves the engine's live windows as a JSON document — the
// operator's /rollups inspection endpoint. Snapshots merge the per-shard partials without consuming them, so polling
// never perturbs the counters the sealing path will export. The response is
// a point-in-time view of mutating state, so it is marked uncacheable; once
// draining reports true the handler answers 503 instead of racing the
// sealing path for counters that are being flushed out from under it (a
// nil draining never drains).
func SnapshotHandler(r *Rollup, draining func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if draining != nil && draining() {
			w.Header().Set("Cache-Control", "no-store")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		snap := r.Snapshot()
		resp := snapshotResponse{
			WindowSecs: int64(r.Window().Seconds()),
			Shards:     r.Shards(),
			Windows:    make([]jsonWindow, len(snap)),
		}
		for i := range snap {
			resp.Windows[i] = toJSONWindow(&snap[i])
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&resp)
	})
}
