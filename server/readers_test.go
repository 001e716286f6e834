package server_test

import (
	"fmt"
	"sync"
	"testing"

	"pnstm/server"
)

// TestFoundMapGetsPruneReaderSets: on a memory server with shared reads, a
// found MapGet records a reader entry on its bucket and one on the
// bucket's ttl variable, and with no TTLs and no writes nothing but the
// read path's prune (D54) ever removes them. 20,000 gets must therefore
// see at least 90% of their 40,000 entries dropped — a count, not a
// timing.
func TestFoundMapGetsPruneReaderSets(t *testing.T) {
	s := startServer(t, server.Config{Workers: 4, SharedReads: true})
	const keys, gets, callers = 256, 20000, 4
	cl := dial(t, s, callers)
	for i := 0; i < keys; i++ {
		if err := cl.MapPut("m", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if b := s.Registry().Map("m").Buckets(); b != 64 {
		t.Fatalf("map has %d buckets, want the default 64", b)
	}

	before := s.Runtime().Stats()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < gets/callers; i++ {
				k := fmt.Sprintf("k%d", (g*gets/callers+i)%keys)
				if _, ok, err := cl.MapGet("m", k); err != nil || !ok {
					t.Errorf("MapGet(%s) = found %v, err %v", k, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	d := s.Runtime().Stats().Sub(before)
	t.Logf("%d gets: %d prunes dropped %d reader entries", gets, d.ReaderPrunes, d.ReaderEntriesDropped)
	if want := uint64(0.9 * 2 * gets); d.ReaderEntriesDropped < want {
		t.Fatalf("%d gets: %d prunes dropped %d reader entries, want >= %d",
			gets, d.ReaderPrunes, d.ReaderEntriesDropped, want)
	}
}
