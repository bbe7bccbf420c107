// Command mimostat is the top-like fleet view of the control-SLO
// engine: it polls a running mimoexp/mimotrace diagnostics endpoint
// (started with -metrics-addr, which attaches the fleet) and renders
// the fleet report — loops sorted by worst burn rate, hottest first —
// refreshing in place. When the observed process records telemetry
// history (-history), the fleet view carries a sparkline of the
// fleet-wide tracking error and the per-loop drill-down charts each
// recorded signal.
//
// The same fleet answers the process's /healthz (obs.Fleet.Healthz)
// from each loop's last reported state: 503 naming the first loop in
// supervisor fallback, else the first failing its model-health
// monitor, else the first alerting on a control SLO; otherwise 200,
// annotated with model-health warns and error-budget burn.
//
// Usage:
//
//	mimostat [-addr host:port] [-interval 2s] [-n 20]
//	mimostat -once                 # one snapshot, no screen control
//	mimostat -json                 # one machine-readable snapshot
//	mimostat -loop faults/x/MIMO   # drill into one loop's SLO windows
//	mimostat -loop x -span 2048    # widen the history window
//
// Exit status in -once and -json mode mirrors the fleet verdict: 0 ok,
// 1 warn, 2 fail — usable straight from a shell gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mimoctl/internal/obs"
	"mimoctl/internal/tsdb"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8090", "diagnostics address of the observed process")
		interval = flag.Duration("interval", 2*time.Second, "refresh period")
		once     = flag.Bool("once", false, "print one snapshot and exit (status 0 ok, 1 warn, 2 fail)")
		jsonOut  = flag.Bool("json", false, "print one machine-readable JSON snapshot and exit (same status codes as -once)")
		loop     = flag.String("loop", "", "drill into one loop: show every SLO window instead of the fleet table")
		topN     = flag.Int("n", 0, "show only the hottest N loops (0 = all)")
		span     = flag.Uint64("span", 512, "history sparkline window in epochs")
	)
	flag.Parse()

	base := "http://" + *addr
	url := base + "/slo"
	if *loop != "" {
		url += "?loop=" + *loop
	}
	client := &http.Client{Timeout: 10 * time.Second}

	for {
		rep, err := fetch(client, url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mimostat: %v\n", err)
			if *once || *jsonOut {
				os.Exit(2)
			}
			time.Sleep(*interval)
			continue
		}
		if *jsonOut {
			renderJSON(os.Stdout, rep)
			exitVerdict(rep.Level)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear, home
		}
		render(os.Stdout, rep, *loop, *topN)
		renderHistory(os.Stdout, client, base, *loop, *span)
		if *once {
			exitVerdict(rep.Level)
		}
		time.Sleep(*interval)
	}
}

// exitVerdict maps the fleet verdict to the documented exit status.
func exitVerdict(level string) {
	switch level {
	case "fail":
		os.Exit(2)
	case "warn":
		os.Exit(1)
	}
	os.Exit(0)
}

func fetch(client *http.Client, url string) (*obs.FleetReport, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var rep obs.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	return &rep, nil
}

// renderJSON emits the one-shot machine-readable report: the fleet
// report as served by /slo, wrapped with the poll timestamp so scripted
// consumers can stamp their samples.
func renderJSON(w io.Writer, rep *obs.FleetReport) {
	out := struct {
		PolledAt time.Time `json:"polled_at"`
		*obs.FleetReport
	}{time.Now().UTC(), rep}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "mimostat: encoding report: %v\n", err)
		os.Exit(2)
	}
}

func render(w io.Writer, rep *obs.FleetReport, loop string, topN int) {
	badge := strings.ToUpper(rep.Level)
	fmt.Fprintf(w, "mimostat  %s  [%s] %s\n", time.Now().Format("15:04:05"), badge, rep.Detail)
	fmt.Fprintf(w, "loops %d  alerting %d  burning %d  events %d (dropped %d)\n\n",
		rep.Loops, rep.AlertingLoops, rep.BurningLoops, rep.EventsPublished, rep.EventsDropped)

	if loop != "" {
		renderLoop(w, rep, loop)
		return
	}
	rows := rep.Rows
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	fmt.Fprintf(w, "%-40s %10s %9s %8s %-14s %9s %10s %8s\n",
		"LOOP", "EPOCHS", "MODE", "BURN", "WORST-SLO", "TRACK-RMS", "FALLBACK", "VIOL")
	for _, r := range rows {
		alert := " "
		if r.Alerting {
			alert = "!"
		}
		fmt.Fprintf(w, "%-40s %10d %9s %7.2f%s %-14s %9.3f %10d %7.1fs\n",
			clip(r.Loop, 40), r.Epochs, r.Mode, r.WorstBurn, alert, r.WorstSLO,
			float64(r.TrackingRMS), r.FallbackEpochs, float64(r.ViolationSeconds))
	}
	if topN > 0 && len(rep.Rows) > topN {
		fmt.Fprintf(w, "... %d more loops (raise -n)\n", len(rep.Rows)-topN)
	}
}

func renderLoop(w io.Writer, rep *obs.FleetReport, loop string) {
	for _, r := range rep.Rows {
		if r.Loop != loop {
			continue
		}
		fmt.Fprintf(w, "loop %s: %d epochs, mode %s, tracking RMS %.3f, %d fallback epochs, %.1fs over power budget\n\n",
			r.Loop, r.Epochs, r.Mode, float64(r.TrackingRMS), r.FallbackEpochs, float64(r.ViolationSeconds))
		slos := append([]obs.SLOStatus(nil), r.SLOs...)
		sort.Slice(slos, func(i, j int) bool { return slos[i].WorstBurn > slos[j].WorstBurn })
		for _, s := range slos {
			alert := ""
			if s.Alerting {
				alert = "  << ALERTING"
			}
			fmt.Fprintf(w, "  %-14s (%s, objective %.2f%%): %d/%d bad epochs%s\n",
				s.Name, s.Signal, 100*s.Objective, s.BadEpochs, s.TotalEpochs, alert)
			for _, win := range s.Windows {
				mark := " "
				if win.Burning {
					mark = "*"
				}
				fmt.Fprintf(w, "    %s window %6d epochs: burn %6.2f / max %.2f\n",
					mark, win.Epochs, win.Burn, win.MaxBurn)
			}
		}
		return
	}
	fmt.Fprintf(w, "loop %q not found (%d loops registered)\n", loop, rep.Loops)
}

// historySignals are the per-loop drill-down charts, in render order.
var historySignals = []string{"ips", "power_w", "track_err", "guardband"}

// renderHistory appends sparkline panels from the /history endpoint:
// the fleet-wide tracking-error trend on the fleet view, one chart per
// recorded signal on the loop drill-down. A process without the
// history store simply has no /history route, so any fetch failure
// degrades to omitting the panel — mimostat keeps working against
// older or history-off processes.
func renderHistory(w io.Writer, client *http.Client, base, loop string, span uint64) {
	if loop == "" {
		fh, err := fetchFleetHistory(client, base+"/history?signal=track_err&res=auto")
		if err != nil || len(fh.Points) == 0 {
			return
		}
		vals := make([]float64, len(fh.Points))
		for i, p := range fh.Points {
			vals[i] = float64(p.Mean)
		}
		vals = tail(vals, sparkWidth)
		fmt.Fprintf(w, "\ntrack_err (fleet mean, %s/bucket)  %s  last %.4f\n",
			fh.Resolution, sparkline(vals), vals[len(vals)-1])
		return
	}
	wrote := false
	for _, sig := range historySignals {
		url := fmt.Sprintf("%s/history?loop=%s&signal=%s&res=auto", base, loop, sig)
		h, err := fetchLoopHistory(client, url)
		if err != nil || len(h.Points) == 0 {
			continue
		}
		pts := h.Points
		if span > 0 {
			last := pts[len(pts)-1].Epoch
			from := uint64(0)
			if last > span {
				from = last - span
			}
			for len(pts) > 0 && pts[0].Epoch < from {
				pts = pts[1:]
			}
		}
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = float64(p.Mean)
		}
		vals = tail(vals, sparkWidth)
		if !wrote {
			fmt.Fprintf(w, "\nhistory (res %s):\n", h.Resolution)
			wrote = true
		}
		fmt.Fprintf(w, "  %-10s %s  last %.4f\n", sig, sparkline(vals), vals[len(vals)-1])
	}
}

func fetchLoopHistory(client *http.Client, url string) (*tsdb.HistoryResponse, error) {
	var h tsdb.HistoryResponse
	if err := fetchJSON(client, url, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

func fetchFleetHistory(client *http.Client, url string) (*tsdb.FleetHistoryResponse, error) {
	var h tsdb.FleetHistoryResponse
	if err := fetchJSON(client, url, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

func fetchJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// sparkWidth bounds sparkline panels to a terminal-friendly width.
const sparkWidth = 64

// sparkRunes are the eight block-element levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals as unicode block elements scaled to the
// window's own min/max (a flat series renders mid-level). Non-finite
// samples render as spaces.
func sparkline(vals []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo > hi {
		return strings.Repeat(" ", len(vals)) // nothing finite
	}
	var sb strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			sb.WriteByte(' ')
			continue
		}
		idx := len(sparkRunes) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// tail keeps the last n values.
func tail(vals []float64, n int) []float64 {
	if len(vals) > n {
		return vals[len(vals)-n:]
	}
	return vals
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
