package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mimoctl/internal/flightrec"
	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
	"mimoctl/internal/tsdb"
	"mimoctl/internal/workloads"
)

// Golden-result regression suite: every Tabular experiment result is
// rendered to CSV at a small fixed epoch budget and DefaultSeed and
// compared byte-for-byte against internal/experiments/testdata/golden.
// Any numerical drift — an accidental RNG reordering, a float summation
// reorder, a changed default — fails here with a diffable artifact.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// and review the golden diff like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite the golden CSV files with the current outputs")

// goldenCase is one experiment at its pinned regression budget. Budgets
// are small (the full suite runs in a few seconds) but long enough that
// the controllers reach steady state and the CSVs exercise every column.
// attach lists the observation modes the case runs under in the mode
// matrix (TestGoldenParallelIdentical): the ones its runs reach. For a
// matrix case, runs is how many runs flight recording dumps: one per
// member of every row RunTracking or RunEnergy drives, and one per
// fault-sweep run.
type goldenCase struct {
	name   string
	run    func() (Tabular, error)
	attach []obsMode
	runs   int
}

// obsMode is one fleet attachment of the mode matrix.
type obsMode string

const (
	// noFleet runs with no observability plane attached.
	noFleet obsMode = "none"
	// withFleet attaches a fleet with a registry and a bus.
	withFleet obsMode = "bus"
	// withHistory adds a tsdb.Recorder sink to withFleet's bus.
	withHistory obsMode = "history"
)

func goldenCases() []goldenCase {
	const seed = DefaultSeed
	apps := len(workloads.ProductionSet())
	return []goldenCase{
		{name: "fig6", run: func() (Tabular, error) { return Fig6(seed, 600) }},
		{name: "fig7", run: func() (Tabular, error) { return Fig7(seed, 8) }},
		{name: "fig8", run: func() (Tabular, error) { return Fig8(seed, 400) }},
		{name: "fig9", run: func() (Tabular, error) { return Fig9(seed, 1500) }},
		{name: "fig10", run: func() (Tabular, error) { return Fig10(seed, 1500) }},
		// RunTracking: a row per application, its MIMO, Heuristic and
		// Decoupled members each recorded.
		{name: "fig11", run: func() (Tabular, error) { return Fig11(seed, 1200) }, attach: []obsMode{noFleet}, runs: apps * len(Fig11Archs)},
		{name: "fig12", run: func() (Tabular, error) { return Fig12(seed, 2000, 250) }},
		// RunEnergy: a row per application, its Baseline, Optimizer(MIMO),
		// Heuristic searcher and Optimizer(Decoupled) members each
		// recorded.
		{name: "ed1", run: func() (Tabular, error) { return TableEDK(seed, 1200, 1) }, attach: []obsMode{noFleet}, runs: apps * 4},
		{name: "ed3", run: func() (Tabular, error) { return TableEDK(seed, 1200, 3) }},
		{name: "ablation", run: func() (Tabular, error) { return Ablation(seed, 800) }},
		// The fault sweep's supervised loops register with the fleet, and
		// every run is recorded: five architectures per fault class.
		{name: "faults", run: func() (Tabular, error) { return FaultSweep(seed, 1000) }, attach: []obsMode{noFleet, withFleet, withHistory}, runs: len(FaultClasses(1000)) * 5},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".csv")
}

// renderCSV runs one case at the given worker count and returns the CSV
// bytes. Parallelism is restored to serial afterwards so cases never
// leak configuration into each other.
func renderCSV(t *testing.T, c goldenCase, workers int) []byte {
	t.Helper()
	SetParallelism(workers)
	defer SetParallelism(0)
	res, err := c.run()
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", c.name, workers, err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatalf("%s: render: %v", c.name, err)
	}
	return buf.Bytes()
}

// TestGolden asserts the serial output of every experiment matches its
// committed golden CSV byte-for-byte (or rewrites it under -update).
func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := renderCSV(t, c, 0)
			path := goldenPath(c.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output differs from %s\n%s", path, firstDiff(got, want))
			}
		})
	}
}

// TestGoldenParallelIdentical is the determinism contract's committed
// proof: a 4-worker pool must reproduce the serial golden bytes exactly
// (job results land in canonical slots, RNG seeds derive from job
// identity, reduces run in canonical order — so scheduling cannot show
// through). A single-worker pool is included as the degenerate case.
//
// It is also the proof that observation never perturbs control. The
// cases the attachments reach run, serial and on 4 workers, under every
// combination of their observation modes with flight recording off and
// on, and must still match the golden bytes; the counts the attachments
// keep must reconcile exactly (see checkAttached).
func TestGoldenParallelIdentical(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files being rewritten")
	}
	// dumps holds each case's recorded-run count from its first
	// recording row: every later row must record the same runs.
	dumps := map[string]int{}
	for _, workers := range []int{0, 1, 4} {
		for _, c := range goldenCases() {
			c, workers := c, workers
			matrix := workers != 1 && c.attach != nil
			if workers == 0 && !matrix {
				continue // the serial plain run is TestGolden
			}
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				want, err := os.ReadFile(goldenPath(c.name))
				if err != nil {
					t.Fatalf("missing golden file (run TestGolden -update first): %v", err)
				}
				if !matrix {
					if got := renderCSV(t, c, workers); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d output differs from serial golden\n%s",
							workers, firstDiff(got, want))
					}
					return
				}
				for _, mode := range c.attach {
					for _, record := range []bool{false, true} {
						mode, record := mode, record
						name := fmt.Sprintf("fleet=%s/rec=%s", mode, map[bool]string{false: "off", true: "on"}[record])
						t.Run(name, func(t *testing.T) {
							n := checkAttached(t, c, workers, mode, record, want)
							if !record {
								return
							}
							if first, seen := dumps[c.name]; !seen {
								dumps[c.name] = n
							} else if n != first {
								t.Fatalf("recorded %d runs, an earlier row recorded %d", n, first)
							}
						})
					}
				}
			})
		}
	}
}

// checkAttached renders c at the given worker count with the fleet
// attachment mode and flight recording (into a temp dir) set as asked,
// requires the golden bytes, and reconciles the attachments' counts:
//
//   - bus published + dropped = the sum of the /slo row epochs;
//   - history points per signal = published events;
//   - one dump per recorded run, c.runs of them, each holding a record
//     of every epoch the ring keeps and ending on the run's last epoch.
//
// It returns the number of recorded runs.
func checkAttached(t *testing.T, c goldenCase, workers int, mode obsMode, record bool, want []byte) int {
	t.Helper()
	prev := func() string { frMu.Lock(); defer frMu.Unlock(); return frDir }()
	defer SetFlightRecording(prev)
	var dir string
	if record {
		dir = t.TempDir()
	}
	SetFlightRecording(dir)

	var (
		fleet *obs.Fleet
		bus   *obs.Bus
		db    *tsdb.DB
		rec   *tsdb.Recorder
	)
	if mode != noFleet {
		var sinks []obs.Sink
		if mode == withHistory {
			// Raw retention sized past the longest golden run (fig12's
			// 2000 epochs), so the store evicts nothing.
			db = tsdb.New(tsdb.Options{RawEpochs: 4096})
			rec = tsdb.NewRecorder(db, func(id uint32) string { return fleet.LoopName(id) })
			sinks = append(sinks, rec)
		}
		bus = obs.NewBus(1<<14, sinks...)
		fleet = obs.NewFleet(obs.Options{Registry: telemetry.NewRegistry(), Bus: bus})
		SetObservability(fleet)
		defer SetObservability(nil)
	}

	if got := renderCSV(t, c, workers); !bytes.Equal(got, want) {
		t.Fatalf("output differs from serial golden\n%s", firstDiff(got, want))
	}

	if fleet != nil {
		if err := bus.Close(); err != nil {
			t.Fatal(err)
		}
		rep := fleet.Report("")
		if len(rep.Rows) == 0 {
			t.Fatal("no loop registered with the fleet")
		}
		var epochs uint64
		for _, row := range rep.Rows {
			epochs += row.Epochs
		}
		if rep.EventsPublished+rep.EventsDropped != epochs {
			t.Fatalf("bus published %d + dropped %d, /slo rows sum to %d epochs",
				rep.EventsPublished, rep.EventsDropped, epochs)
		}
		if db != nil {
			rec.Sync()
			var pts []tsdb.Point
			for _, sig := range tsdb.Signals {
				var n uint64
				for _, row := range rep.Rows {
					pts, _ = db.Query(pts[:0], row.Loop, sig, 0, math.MaxUint64, tsdb.ResRaw)
					n += uint64(len(pts))
				}
				if n != rep.EventsPublished {
					t.Fatalf("history holds %d %s points, bus published %d events", n, sig, rep.EventsPublished)
				}
			}
		}
	}

	if !record {
		return 0
	}
	frMu.Lock()
	runs := frSeq
	frMu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != runs || runs != c.runs {
		t.Fatalf("%d dumps for %d recorded runs, want %d", len(entries), runs, c.runs)
	}
	// A run is named <kind>_<workload>_<arch>_<seq>: the names less
	// their sequence numbers tell the runs apart.
	labels := map[string]bool{}
	for _, e := range entries {
		labels[e.Name()[:strings.LastIndexByte(e.Name(), '_')]] = true
		meta, recs, err := flightrec.ReadDumpFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != min(meta.Epochs, meta.Capacity) || recs[len(recs)-1].Epoch != uint64(meta.Epochs) {
			t.Fatalf("%s: %d records, want %d ending at epoch %d", e.Name(), len(recs), min(meta.Epochs, meta.Capacity), meta.Epochs)
		}
	}
	if len(labels) != runs {
		t.Fatalf("%d distinct runs among %d dumps", len(labels), runs)
	}
	return runs
}

// firstDiff reports the first differing line for a readable failure.
func firstDiff(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line count differs: got %d, want %d", len(gl), len(wl))
}
