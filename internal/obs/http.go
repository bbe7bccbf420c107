package obs

import (
	"encoding/json"
	"net/http"
	"strconv"

	"mimoctl/internal/telemetry"
)

// SLOHandler serves the fleet report as compact JSON, loops sorted
// hottest first; ?loop=<name> serves only that loop's row, under the
// whole fleet's header.
func (f *Fleet) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(f.Report(r.URL.Query().Get("loop")))
	})
}

// EventsHandler streams live events as JSONL (?format=csv for CSV,
// ?limit=N to close after N events) until the client disconnects. With
// no bus attached it serves 404.
func (f *Fleet) EventsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bus := f.opts.Bus
		if bus == nil {
			http.Error(w, "event bus not enabled", http.StatusNotFound)
			return
		}
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		var sink Sink
		if r.URL.Query().Get("format") == "csv" {
			w.Header().Set("Content-Type", "text/csv")
			sink = NewCSVSink(w, f.LoopName)
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
			sink = NewJSONLSink(w, f.LoopName)
		}
		flusher, _ := w.(http.Flusher)
		events, cancel := bus.Subscribe(1024)
		defer cancel()
		sent := 0
		batch := make([]Event, 1)
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-events:
				if !ok {
					return
				}
				batch[0] = ev
				if sink.WriteEvents(batch) != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
				sent++
				if limit > 0 && sent >= limit {
					return
				}
			}
		}
	})
}

// Endpoints returns the diagnostics routes to mount via
// telemetry.ServerOptions.Extra.
func (f *Fleet) Endpoints() []telemetry.Endpoint {
	return []telemetry.Endpoint{
		{Path: "/slo", Desc: "control-SLO fleet report (JSON; ?loop=name)", Handler: f.SLOHandler()},
		{Path: "/events", Desc: "live per-epoch event stream (JSONL; ?format=csv&limit=N)", Handler: f.EventsHandler()},
	}
}
