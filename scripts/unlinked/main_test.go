package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// nmListing is a go tool nm excerpt: generic instantiations, a closure,
// value and pointer receivers, a main-package function and a data symbol.
const nmListing = `
  4a1b20 T pnstm/stmlib.(*TMap[go.shape.string,go.shape.[]uint8]).Get
  4a1c00 T pnstm/x.Vec.Has
  4a1d00 t pnstm/x.(*Obj).Load
  4a1e00 T pnstm/x.Only.func1
  4a1f00 T pnstm/x.Gen[go.shape.int].func2.1
  4a2000 T main.helper
  4a2100 D pnstm/x.Unlinked
`

// declare writes src as the one file of a package in a fresh directory
// and returns what declared finds in it.
func declare(t *testing.T, path, name, src string) []decl {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := declared(path, name, dir, []string{"a.go"})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"pnstm/stmlib.(*TMap[go.shape.string,go.shape.[]uint8]).Get": "pnstm/stmlib.(*TMap).Get",
		"pnstm.Load[go.shape.map[string][2]int]":                     "pnstm.Load",
		"pnstm/x.Gen[go.shape.int].func2.1":                          "pnstm/x.Gen.func2.1",
		"pnstm/x.(*Obj).Load":                                        "pnstm/x.(*Obj).Load",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnlinkedMatchesSymbols(t *testing.T) {
	decls := declare(t, "pnstm/x", "x", `package x

type Vec uint64

func (v Vec) Has() bool  { return v != 0 }
func (v Vec) Lost() bool { return v == 0 }

type Obj struct{}

func (o *Obj) Load() int { return 0 }
func (o *Obj) Store()    {}

func Only() { f := func() {}; f() }

func Gen[T any]() {
	f := func() {}
	f()
}

func Unlinked() {
}

func init() {}
`)
	decls = append(decls, declare(t, "pnstm/stmlib", "stmlib", `package stmlib

type TMap[K comparable, V any] struct{}

func (m *TMap[K, V]) Get() {}
func (m *TMap[K, V]) Put() {}
`)...)
	var got []string
	lines := map[string]int{}
	for _, d := range unlinked(decls, textSymbols([]byte(nmListing))) {
		got = append(got, d.sym)
		lines[d.sym] = d.lines
	}
	want := []string{
		"pnstm/stmlib.(*TMap).Put",
		"pnstm/x.(*Obj).Store",
		"pnstm/x.Unlinked",
		"pnstm/x.Vec.Lost",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unlinked = %q, want %q", got, want)
	}
	if lines["pnstm/x.Unlinked"] != 2 {
		t.Errorf("pnstm/x.Unlinked spans %d lines, want 2", lines["pnstm/x.Unlinked"])
	}
}

func TestMainPackageDeclaresNothing(t *testing.T) {
	if d := declare(t, "pnstm/cmd/tool", "main", "package main\n\nfunc helper() {}\n\nfunc main() { helper() }\n"); len(d) != 0 {
		t.Fatalf("a main package declared %v", d)
	}
}

func TestCheck(t *testing.T) {
	un := []decl{
		{pkg: "pnstm/internal/chainstm", sym: "pnstm/internal/chainstm.Begin"},
		{pkg: "pnstm/stmlib", sym: "pnstm/stmlib.(*TMap).Buckets"},
		{pkg: "pnstm/stmlib", sym: "pnstm/stmlib.(*TMap).Peek"},
	}
	allow := map[string]string{
		"pnstm/internal/chainstm":      "baseline",
		"pnstm/stmlib.(*TMap).Buckets": "ExampleTMap_Buckets",
		"pnstm/stmlib.(*TMap).Clear":   "ExampleTMap_Clear",
	}
	want := []string{
		"not on allow.txt: pnstm/stmlib.(*TMap).Peek",
		"stale allow.txt entry: pnstm/stmlib.(*TMap).Clear",
	}
	if got := check(un, allow); !reflect.DeepEqual(got, want) {
		t.Fatalf("check = %q, want %q", got, want)
	}
}
