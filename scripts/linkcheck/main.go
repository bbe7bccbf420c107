// Command linkcheck reports every function declared in a non-test file
// under the module's internal/ directory that no program links.
//
//	cd scripts/linkcheck && go run . ../.. ../../bench
//
// It is a module of its own, so that the root module's go test ./...
// does not run its tests. The module scanned is the one in the first
// directory given (default "."); further directories name modules that
// depend on it, such as bench. The programs are the main packages of
// every directory's module that import a package under internal/. Each
// is built with inlining off (-gcflags=all=-l), so that a called
// function keeps a symbol of its own, into a temporary directory
// removed on exit, and its symbols are read with go tool nm.
//
// A function is linked when a text symbol names it, one of its closures
// (.funcN) or its method value (-fm); a method's pointer and value
// receivers count as one. Only packages that some program imports are
// scanned: a package that only _test.go files import is test code. A
// method is not reported when a program converts its type to an
// interface declared in the module that has the method: the build
// needs it even when no program calls it.
//
// The exit status is 1 when a function is reported and 2 when the
// programs cannot be listed, built, scanned or type-checked.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(dirs []string, w io.Writer) int {
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	unlinked, err := scan(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		return 2
	}
	for _, fn := range unlinked {
		fmt.Fprintln(w, fn)
	}
	if len(unlinked) > 0 {
		fmt.Fprintf(w, "%d functions under internal/ are linked by no program: delete each, or move it into a _test.go file or a package only tests import\n", len(unlinked))
		return 1
	}
	return 0
}

// listPkg is the part of go list's JSON output linkcheck reads.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Deps       []string
	Export     string
	Standard   bool
}

// itab is a concrete type converted to an interface, both as
// "importpath.Name".
type itab struct{ typ, iface string }

// scan builds the programs of dirs and returns the unlinked functions as
// "file:line: pkg.Func" lines, sorted.
func scan(dirs []string) ([]string, error) {
	out, err := goCmd(dirs[0], "list", "-m")
	if err != nil {
		return nil, err
	}
	module := strings.TrimSpace(string(out))
	internal := module + "/internal/"

	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	pkgs := map[string]*listPkg{}
	linked := map[string]bool{}
	itabs := map[itab]bool{}
	var progs []string
	for i, dir := range dirs {
		list, err := goList(dir)
		if err != nil {
			return nil, err
		}
		var mains []string
		for _, p := range list {
			if pkgs[p.ImportPath] == nil {
				pkgs[p.ImportPath] = p
			}
			if p.Name == "main" && !p.Standard && importsPrefix(p.Deps, internal) {
				mains = append(mains, p.ImportPath)
			}
		}
		bins, err := build(dir, filepath.Join(tmp, strconv.Itoa(i)), mains)
		if err != nil {
			return nil, err
		}
		for j, bin := range bins {
			if err := readSymbols(bin, mains[j], linked, itabs); err != nil {
				return nil, err
			}
		}
		progs = append(progs, mains...)
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("no main package in %v imports %s...", dirs, internal)
	}

	// The scanned packages are the internal/ packages some program
	// imports; every other one is imported by tests alone.
	var scanned []string
	seen := map[string]bool{}
	for _, prog := range progs {
		for _, dep := range pkgs[prog].Deps {
			if strings.HasPrefix(dep, internal) && !seen[dep] {
				seen[dep] = true
				scanned = append(scanned, dep)
			}
		}
	}

	ld := newLoader(pkgs)
	exempt := map[string]bool{}
	for it := range itabs {
		if !strings.HasPrefix(it.iface, module+"/") {
			continue
		}
		methods, err := ld.interfaceMethods(it.iface)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			exempt[it.typ+"."+m] = true
		}
	}

	root, err := filepath.Abs(dirs[0])
	if err != nil {
		return nil, err
	}
	type finding struct {
		pos  token.Position
		name string
	}
	var found []finding
	for _, path := range scanned {
		files, err := ld.parse(path)
		if err != nil {
			return nil, err
		}
		for _, file := range files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "_") {
					continue
				}
				name := funcName(fd)
				if linked[path+"."+name] || exempt[path+"."+name] {
					continue
				}
				pos := ld.fset.Position(fd.Pos())
				if rel, err := filepath.Rel(root, pos.Filename); err == nil {
					pos.Filename = rel
				}
				found = append(found, finding{pos, path[strings.LastIndex(path, "/")+1:] + "." + name})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	unlinked := make([]string, len(found))
	for i, f := range found {
		unlinked[i] = fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.name)
	}
	return unlinked, nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out, nil
}

// goList lists the packages of dir's module and their dependencies,
// compiling each to locate its export data.
func goList(dir string) ([]*listPkg, error) {
	out, err := goCmd(dir, "list", "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Deps,Export,Standard", "./...")
	if err != nil {
		return nil, err
	}
	var list []*listPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		list = append(list, p)
	}
	return list, nil
}

func importsPrefix(deps []string, prefix string) bool {
	for _, d := range deps {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

// build links mains into dir with inlining off and returns each one's
// binary, in mains' order. go build -o dir/ names a program after the
// last element of its path, so programs that share one are built in
// separate runs.
func build(moduleDir, dir string, mains []string) ([]string, error) {
	bins := make([]string, len(mains))
	for run := 0; ; run++ {
		out := filepath.Join(dir, strconv.Itoa(run)) + string(filepath.Separator)
		args := []string{"build", "-gcflags=all=-l", "-o", out}
		names := map[string]bool{}
		for i, p := range mains {
			if name := path.Base(p); bins[i] == "" && !names[name] {
				names[name] = true
				bins[i] = out + name
				args = append(args, p)
			}
		}
		if len(names) == 0 {
			return bins, nil
		}
		if _, err := goCmd(moduleDir, args...); err != nil {
			return nil, err
		}
	}
}

// readSymbols adds to linked every function a text symbol of bin
// belongs to, and to itabs every conversion of a concrete type to an
// interface bin holds. prog is bin's import path, which its symbols
// call main.
func readSymbols(bin, prog string, linked map[string]bool, itabs map[itab]bool) error {
	out, err := goCmd(".", "tool", "nm", bin)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		kind, name := parseSymbol(sc.Text())
		switch {
		case kind == 'T' || kind == 't':
			for _, key := range funcKeys(name) {
				linked[key] = true
			}
		case strings.HasPrefix(name, "go:itab."):
			typ, iface, ok := strings.Cut(stripBrackets(strings.TrimPrefix(name, "go:itab.")), ",")
			if !ok {
				continue
			}
			if strings.HasPrefix(iface, "main.") {
				iface = prog + iface[len("main"):]
			}
			itabs[itab{strings.TrimPrefix(typ, "*"), iface}] = true
		}
	}
	return sc.Err()
}

// parseSymbol splits a go tool nm line into the symbol's kind letter and
// its name, which may hold spaces.
func parseSymbol(line string) (kind byte, name string) {
	line = strings.TrimLeft(line, " ")
	if sp := strings.IndexByte(line, ' '); sp > 1 {
		line = line[sp+1:] // the address; undefined symbols have none
	}
	if len(line) < 3 || line[1] != ' ' {
		return 0, ""
	}
	return line[0], line[2:]
}

// funcKeys returns the declarations a function symbol may belong to,
// each as "importpath.Func" or "importpath.Type.Method". Type arguments
// are dropped, a closure or a method value counts as its enclosing
// declaration, and a pointer receiver as its base type. The symbol alone
// does not tell Func.func1 from Type.Method, so both the first dotted
// name and the first two are returned; the caller looks them up among
// the declarations.
func funcKeys(sym string) []string {
	name := stripBrackets(sym)
	slash := strings.LastIndexByte(name, '/') + 1
	dot := strings.IndexByte(name[slash:], '.')
	if dot < 0 {
		return nil
	}
	pkg, rest := name[:slash+dot], name[slash+dot+1:]
	rest = strings.NewReplacer("(*", "", ")", "").Replace(strings.TrimSuffix(rest, "-fm"))
	parts := strings.SplitN(rest, ".", 3)
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, keys[0]+"."+parts[1])
	}
	return keys
}

// stripBrackets removes every bracketed type-argument list, nested
// brackets included: a generic instance's shape names hold spaces,
// dots, slashes and brackets of their own.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// funcName is a declaration's name as funcKeys keys it: Func, or
// Type.Method whatever the receiver's pointer or type parameters.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// loader parses the module's packages and type-checks them from source
// on demand, importing every other package from its export data.
type loader struct {
	fset    *token.FileSet
	pkgs    map[string]*listPkg
	gc      types.Importer
	files   map[string][]*ast.File
	checked map[string]*types.Package
}

func newLoader(pkgs map[string]*listPkg) *loader {
	ld := &loader{fset: token.NewFileSet(), pkgs: pkgs, files: map[string][]*ast.File{}, checked: map[string]*types.Package{}}
	ld.gc = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := pkgs[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	return ld
}

func (ld *loader) parse(path string) ([]*ast.File, error) {
	if files, ok := ld.files[path]; ok {
		return files, nil
	}
	p := ld.pkgs[path]
	if p == nil {
		return nil, fmt.Errorf("package %s is not listed", path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	ld.files[path] = files
	return files, nil
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if tp := ld.checked[path]; tp != nil {
		return tp, nil
	}
	if p := ld.pkgs[path]; p == nil || p.Standard {
		return ld.gc.Import(path)
	}
	files, err := ld.parse(path)
	if err != nil {
		return nil, err
	}
	tp, err := (&types.Config{Importer: ld}).Check(path, ld.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	ld.checked[path] = tp
	return tp, nil
}

// interfaceMethods returns the method names of the interface iface
// ("importpath.Name"), embedded interfaces' included.
func (ld *loader) interfaceMethods(iface string) ([]string, error) {
	dot := strings.LastIndexByte(iface, '.')
	tp, err := ld.Import(iface[:dot])
	if err != nil {
		return nil, err
	}
	obj := tp.Scope().Lookup(iface[dot+1:])
	if obj == nil {
		return nil, fmt.Errorf("%s is not declared", iface)
	}
	it, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("%s is not an interface", iface)
	}
	names := make([]string, it.NumMethods())
	for i := range names {
		names[i] = it.Method(i).Name()
	}
	return names, nil
}
