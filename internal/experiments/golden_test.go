package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
type goldenCase struct {
	name string
	run  func() (Tabular, error)
}

func goldenCases() []goldenCase {
	const seed = DefaultSeed
	return []goldenCase{
		{"fig6", func() (Tabular, error) { return Fig6(seed, 600) }},
		{"fig7", func() (Tabular, error) { return Fig7(seed, 8) }},
		{"fig8", func() (Tabular, error) { return Fig8(seed, 400) }},
		{"fig9", func() (Tabular, error) { return Fig9(seed, 1500) }},
		{"fig10", func() (Tabular, error) { return Fig10(seed, 1500) }},
		{"fig11", func() (Tabular, error) { return Fig11(seed, 1200) }},
		{"fig12", func() (Tabular, error) { return Fig12(seed, 2000, 250) }},
		{"ed1", func() (Tabular, error) { return TableEDK(seed, 1200, 1) }},
		{"ed3", func() (Tabular, error) { return TableEDK(seed, 1200, 3) }},
		{"ablation", func() (Tabular, error) { return Ablation(seed, 800) }},
		{"faults", func() (Tabular, error) { return FaultSweep(seed, 1000) }},
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
func TestGoldenParallelIdentical(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files being rewritten")
	}
	for _, workers := range []int{1, 4} {
		for _, c := range goldenCases() {
			c, workers := c, workers
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				want, err := os.ReadFile(goldenPath(c.name))
				if err != nil {
					t.Fatalf("missing golden file (run TestGolden -update first): %v", err)
				}
				got := renderCSV(t, c, workers)
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d output differs from serial golden\n%s",
						workers, firstDiff(got, want))
				}
			})
		}
	}
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
