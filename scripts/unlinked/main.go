// Command unlinked lists the library functions that no binary links.
//
// It builds every main package under ./cmd and ./benchmark with inlining
// off, reads the text symbols of each binary with go tool nm, and counts
// a function declared in a non-test file of a non-main package as linked
// when its symbol, or one of its closures (name.funcN), is present.
// Every function that is not linked must be named in allow.txt with the
// reason it stays, and every line of allow.txt must name a function that
// is not linked. Run it from the module root:
//
//	go run ./scripts/unlinked
//
// It prints each unlinked function with its length in lines, from func to
// the closing brace, and exits 1 if either rule is broken.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// mains are the go build patterns whose binaries define what is linked.
var mains = []string{"./cmd/...", "./benchmark"}

// closure matches the start of a closure's suffix: F.func1 is a closure
// of F.
var closure = regexp.MustCompile(`\.func[0-9]`)

// decl is one declared function: its symbol as go tool nm prints it,
// with type arguments stripped, and its length in lines.
type decl struct {
	pkg, sym string
	lines    int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + "/"}, mains...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var syms []string
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return fmt.Errorf("go tool nm %s: %v", b.Name(), err)
		}
		syms = append(syms, textSymbols(out)...)
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		return fmt.Errorf("go list: %v", err)
	}
	var decls []decl
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		d, err := declared(f[0], f[1], f[2], f[3:])
		if err != nil {
			return err
		}
		decls = append(decls, d...)
	}
	allow, err := readAllow("scripts/unlinked/allow.txt")
	if err != nil {
		return err
	}
	un := unlinked(decls, syms)
	lines := 0
	for _, d := range un {
		lines += d.lines
		fmt.Printf("%4d  %s\n", d.lines, d.sym)
	}
	fmt.Printf("%d of %d functions (%d lines) are linked into no binary\n", len(un), len(decls), lines)
	bad := check(un, allow)
	for _, msg := range bad {
		fmt.Println(msg)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d functions or allow.txt entries to act on", len(bad))
	}
	return nil
}

// textSymbols returns the text symbols of a go tool nm listing with
// their type arguments stripped.
func textSymbols(nm []byte) []string {
	var syms []string
	for _, line := range strings.Split(string(nm), "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
			syms = append(syms, stripTypeArgs(f[2]))
		}
	}
	return syms
}

// stripTypeArgs removes every bracketed type argument list, nested ones
// included: (*TMap[go.shape.string,go.shape.[]uint8]).Get becomes
// (*TMap).Get.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declared returns the functions with a body declared in the named files
// of one package. A main package declares none: no binary links another
// binary's functions.
func declared(path, name, dir string, files []string) ([]decl, error) {
	if name == "main" {
		return nil, nil
	}
	fset := token.NewFileSet()
	var out []decl
	for _, file := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			out = append(out, decl{
				pkg:   path,
				sym:   path + "." + receiver(fn) + fn.Name.Name,
				lines: fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1,
			})
		}
	}
	return out, nil
}

// receiver renders a method's receiver as go tool nm prints it, "(*T)."
// or "T.", and a plain function's as "".
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	t, ptr := fn.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	name := t.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// unlinked returns the decls that neither syms nor a closure in syms names.
func unlinked(decls []decl, syms []string) []decl {
	have := make(map[string]bool, len(syms))
	for _, s := range syms {
		have[s] = true
		if loc := closure.FindStringIndex(s); loc != nil {
			have[s[:loc[0]]] = true
		}
	}
	var out []decl
	for _, d := range decls {
		if !have[d.sym] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sym < out[j].sym })
	return out
}

// readAllow reads allow.txt: one function symbol, or a package path that
// allows all of that package, per line, followed by the reason it stays.
func readAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

// check returns one message per unlinked function that allow does not
// name and per allow entry that names no unlinked function.
func check(un []decl, allow map[string]string) []string {
	var bad []string
	used := map[string]bool{}
	for _, d := range un {
		switch {
		case allow[d.sym] != "":
			used[d.sym] = true
		case allow[d.pkg] != "":
			used[d.pkg] = true
		default:
			bad = append(bad, "not on allow.txt: "+d.sym)
		}
	}
	for name := range allow {
		if !used[name] {
			bad = append(bad, "stale allow.txt entry: "+name)
		}
	}
	sort.Strings(bad)
	return bad
}
