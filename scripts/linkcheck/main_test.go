package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFuncKeys(t *testing.T) {
	const (
		exp    = "mimoctl/internal/experiments."
		mimo   = "go.shape.struct { mimoctl/internal/experiments.ctrl *mimoctl/internal/core.MIMOController; mimoctl/internal/experiments.rep *mimoctl/internal/core.DesignReport; mimoctl/internal/experiments.err error }"
		dec    = "go.shape.struct { mimoctl/internal/experiments.ctrl *mimoctl/internal/decoupled.Controller; mimoctl/internal/experiments.err error }"
		static = "go.shape.struct { mimoctl/internal/experiments.prof *mimoctl/internal/core.StaticProfile; mimoctl/internal/experiments.err error }"
	)
	designOnce := []string{exp + "designOnce"}
	for _, tc := range []struct {
		line string
		want []string
	}{
		// The six instances of the generic designOnce and their closures.
		{"  6c7720 T " + exp + "designOnce[" + mimo + "]", designOnce},
		{"  6c7840 T " + exp + "designOnce[" + mimo + "].func1", append(designOnce, exp+"designOnce.func1")},
		{"  6c7560 T " + exp + "designOnce[" + dec + "]", designOnce},
		{"  6c7680 T " + exp + "designOnce[" + dec + "].func1", append(designOnce, exp+"designOnce.func1")},
		{"  6c73a0 T " + exp + "designOnce[" + static + "]", designOnce},
		{"  6c74c0 T " + exp + "designOnce[" + static + "].func1", append(designOnce, exp+"designOnce.func1")},
		// A closure of a function and of a method.
		{"  6c7280 T " + exp + "Ablation.func1", []string{exp + "Ablation", exp + "Ablation.func1"}},
		{"  69e040 T mimoctl/internal/core.(*Optimizer).beginTrial.func1", []string{"mimoctl/internal/core.Optimizer", "mimoctl/internal/core.Optimizer.beginTrial"}},
		// A method value.
		{"  6a0000 t mimoctl/internal/obs.(*Fleet).Healthz-fm", []string{"mimoctl/internal/obs.Fleet", "mimoctl/internal/obs.Fleet.Healthz"}},
		// A method of a generic type.
		{"  6a0000 T mimoctl/internal/x.(*Ring[go.shape.[]int]).Push", []string{"mimoctl/internal/x.Ring", "mimoctl/internal/x.Ring.Push"}},
	} {
		kind, name := parseSymbol(tc.line)
		if kind != 'T' && kind != 't' {
			t.Errorf("parseSymbol(%q) kind = %q", tc.line, kind)
		}
		if got := funcKeys(name); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("funcKeys(%q) = %q, want %q", name, got, tc.want)
		}
	}
	if kind, name := parseSymbol("         U abort"); kind != 'U' || name != "abort" {
		t.Errorf("undefined symbol parsed as %q %q", kind, name)
	}
}

// A value method that only an interface call reaches is linked through
// its pointer wrapper alone; both must key the same declaration.
func TestValueMethodThroughPointerWrapper(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", "package sim\nfunc (p PhaseParams) L1MPKI() float64 { return 0 }\nfunc (r *Ring[T]) Push(v T) {}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		names = append(names, funcName(d.(*ast.FuncDecl)))
	}
	if want := []string{"PhaseParams.L1MPKI", "Ring.Push"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("funcName = %q, want %q", names, want)
	}
	_, sym := parseSymbol("  5c1e00 T mimoctl/internal/sim.(*PhaseParams).L1MPKI")
	if keys := funcKeys(sym); keys[len(keys)-1] != "mimoctl/internal/sim."+names[0] {
		t.Fatalf("pointer wrapper keys %q do not include the value method", keys)
	}
}

// TestScanModule runs the whole gate on a small module: an unused
// function and an unused generic function are reported by name, a
// method a program's interface conversion needs is not, a package only
// tests import is not scanned, and a new program that calls the unused
// functions links them with no list edited.
func TestScanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a module")
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("internal/a/a.go", `package a

type Counter interface {
	Inc()
	Value() int
}

type nop struct{}

func (nop) Inc()       {}
func (nop) Value() int { return 0 }

func New() Counter { return nop{} }

func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

func Used() int { return Map([]int{1}, func(x int) int { return 2 * x })[0] }

func Unused() int { return 1 }

func Last[T any](xs []T) T { return xs[len(xs)-1] }
`)
	write("internal/testonly/testonly.go", "package testonly\n\nfunc Helper() int { return 3 }\n")
	write("internal/a/a_test.go", "package a\n\nimport (\n\t\"testing\"\n\n\t\"example.com/m/internal/testonly\"\n)\n\nfunc TestHelper(t *testing.T) { _ = testonly.Helper() }\n")
	write("cmd/x/main.go", "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() {\n\ta.New().Inc()\n\tprintln(a.Used())\n}\n")

	var out bytes.Buffer
	if code := run([]string{dir}, &out); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, &out)
	}
	want := "internal/a/a.go:24: a.Unused\ninternal/a/a.go:26: a.Last\n"
	if !strings.HasPrefix(out.String(), want) || strings.Count(out.String(), "\n") != 3 {
		t.Fatalf("reported:\n%s\nwant:\n%s", &out, want)
	}

	write("examples/y/main.go", "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { println(a.Unused(), a.Last([]int{1})) }\n")
	out.Reset()
	if code := run([]string{dir}, &out); code != 0 {
		t.Fatalf("with examples/y: exit %d, want 0:\n%s", code, &out)
	}
}
