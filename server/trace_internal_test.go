package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// White-box tests for the crisis-dump path (D37): the crisis hook must
// produce exactly one timestamped flight-*.json in the data directory
// per debounce window, and a memory-only server must skip the file
// quietly. The debounce is decided in the hook and Close dumps a signal
// still pending, so each test learns the outcome by closing the server.

func flightFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "flight-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestCrisisDumpWritesFlightFile(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Addr: "127.0.0.1:0", DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck // torn down via Close below

	// A second crisis inside the debounce window must NOT write another
	// file — a livelocked shard re-taking the token would otherwise spam
	// the data directory with near-identical snapshots.
	s.crisis.noteCrisis()
	s.crisis.noteCrisis()
	s.Close()
	if n := s.crisis.dumps.Load(); n != 1 {
		t.Fatalf("dump counter = %d after back-to-back crises, want 1 (debounced)", n)
	}
	files := flightFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("data dir holds %d flight files, want 1: %v", len(files), files)
	}
	blob, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatalf("flight file is not valid JSON: %v", err)
	}
	if dump.Reason == "" || dump.WrittenAt.IsZero() {
		t.Fatalf("dump lacks reason/timestamp: %+v", dump)
	}
	if len(dump.Shards) != 1 {
		t.Fatalf("dump covers %d shards, want 1", len(dump.Shards))
	}
}

func TestCrisisDumpSkippedWithoutDataDir(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck // torn down via Close below

	// Close handles the pending signal; the dump counter must stay zero
	// because there is nowhere to write.
	s.crisis.noteCrisis()
	s.Close()
	if n := s.crisis.dumps.Load(); n != 0 {
		t.Fatalf("memory-only server wrote %d dumps", n)
	}
}
