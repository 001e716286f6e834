package server

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"pnstm/internal/wal"
	"pnstm/stmlib"
)

// TestImageV2RoundTrip: a fully-populated image — TTLs, sorted entries,
// outstanding leases, watermarks — survives encode/decode exactly.
func TestImageV2RoundTrip(t *testing.T) {
	img := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{"m": {"k1": []byte("v1"), "k2": []byte("v2")}},
		Queues:   map[string][][]byte{"q": {[]byte("a"), []byte("b")}},
		Counters: map[string]int64{"c": -7},
		MapTTLs:  map[string]map[string]int64{"m": {"k2": 12345}},
		Sorted: map[string][]stmlib.SortedEntry[string, []byte]{
			"board": {
				{Key: "p1", Value: []byte("one")},
				{Key: "p2", Value: []byte("two"), Exp: 999},
			},
		},
		Leases: map[string][]stmlib.LeaseRecord[[]byte]{
			"q": {{ID: 3, Value: []byte("leased"), Deadline: 777}},
		},
		LeaseSeqs: map[string]uint64{"q": 3},
	}
	data := encodeImage(img, 42)
	if !bytes.HasPrefix(data, imageMagic) {
		t.Fatalf("v2 payload missing magic: % x", data[:8])
	}
	got, gsn, err := decodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if gsn != 42 {
		t.Fatalf("watermark = %d, want 42", gsn)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatalf("round-trip mismatch:\n got  %+v\n want %+v", got, img)
	}
}

// TestImageUnknownVersionRejected: a payload claiming a future format
// must refuse to decode rather than misparse.
func TestImageUnknownVersionRejected(t *testing.T) {
	data := append(append([]byte(nil), imageMagic...), imageVersion+1)
	if _, _, err := decodeImage(data); err == nil {
		t.Fatal("future image version decoded")
	}
}

// oversizeCountImage is an IMG2 payload of 28 bytes whose one sorted
// map claims 2³¹−1 entries. Sized by that count, the entry slice alone
// would take ~96 GiB.
func oversizeCountImage() []byte {
	p := append(append([]byte(nil), imageMagic...), imageVersion)
	p = appendU32(p, 0) // maps
	p = appendU32(p, 0) // queues
	p = appendU32(p, 0) // counters
	p = appendU32(p, 1) // sorted maps
	p = appendU16Str(p, "s")
	return appendU32(p, 1<<31-1)
}

// TestImageOversizeCountRefused: a count the rest of the payload cannot
// hold is an error, not an allocation. A replica decodes the snapshot
// chunks a primary ships with the same function.
func TestImageOversizeCountRefused(t *testing.T) {
	if _, _, err := decodeImage(oversizeCountImage()); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("oversize count decoded: %v", err)
	}
}

// imageWithoutMagic is a snapshot payload as builds before IMG2 wrote
// it: maps, queues and counters, then the watermark, with no magic and
// no version byte.
func imageWithoutMagic() []byte {
	p := appendU32(nil, 1) // maps
	p = appendU16Str(p, "m")
	p = appendU32(p, 1)
	p = appendU16Str(p, "k")
	p = appendU32Bytes(p, []byte("old"))
	p = appendU32(p, 0) // queues
	p = appendU32(p, 0) // counters
	return binary.BigEndian.AppendUint64(p, 0)
}

// bootOverImage writes a 1-shard store whose snapshot is payload and
// boots a server on it, returning the boot error.
func bootOverImage(t *testing.T, payload []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := wal.WriteManifest(dir, wal.Manifest{Version: wal.ManifestVersion, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	wl, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := AppendRequest(nil, &Request{Op: OpMapPut, Name: "m", Key: "k", Value: []byte("old")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Append(frame); err != nil {
		t.Fatal(err)
	}
	if err := wl.WriteSnapshot(payload, 1); err != nil {
		t.Fatal(err)
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dir})
	if err == nil {
		s.Close()
	}
	return err
}

// TestImageWithoutMagicFailsBoot: a snapshot without the IMG2 magic is
// refused at boot, and the error names the format and the way forward.
func TestImageWithoutMagicFailsBoot(t *testing.T) {
	err := bootOverImage(t, imageWithoutMagic())
	if err == nil {
		t.Fatal("a store whose image has no IMG2 magic booted")
	}
	for _, want := range []string{`"IMG2"`, "earlier pnstm build", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boot error %q does not mention %q", err, want)
		}
	}
}

// TestImageWithoutWatermarkFailsBoot: an IMG2 snapshot that ends before
// its GSN watermark is refused at boot rather than read as watermark 0,
// which reconcileGSNs would trust.
func TestImageWithoutWatermarkFailsBoot(t *testing.T) {
	img := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{"m": {"k": []byte("old")}},
		Queues:   map[string][][]byte{},
		Counters: map[string]int64{},
	}
	data := encodeImage(img, 0)
	err := bootOverImage(t, data[:len(data)-8])
	if err == nil {
		t.Fatal("a store whose image has no watermark booted")
	}
	for _, want := range []string{"watermark", "earlier pnstm build", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("boot error %q does not mention %q", err, want)
		}
	}
	if err := bootOverImage(t, data); err != nil {
		t.Fatalf("the same image with its watermark: %v", err)
	}
}

// TestRegistryImageMerge: stitching per-shard exports — maps union by
// key, queues append, counters SUM (cross-structure transactions leave
// counter partials on several shards).
func TestRegistryImageMerge(t *testing.T) {
	a := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{"m1": {"k1": []byte("v1")}},
		Queues:   map[string][][]byte{"q1": {[]byte("e1"), []byte("e2")}},
		Counters: map[string]int64{"sold": 10, "only-a": 3},
	}
	b := &stmlib.RegistryImage{
		Maps:     map[string]map[string][]byte{"m1": {"k2": []byte("v2")}, "m2": {"x": []byte("y")}},
		Queues:   map[string][][]byte{"q1": {[]byte("e3")}, "q2": {[]byte("z")}},
		Counters: map[string]int64{"sold": 32, "only-b": 7},
	}
	mergeImages(a, b)
	mergeImages(a, nil) // nil other is a no-op

	if len(a.Maps) != 2 || string(a.Maps["m1"]["k1"]) != "v1" || string(a.Maps["m1"]["k2"]) != "v2" || string(a.Maps["m2"]["x"]) != "y" {
		t.Errorf("merged maps wrong: %v", a.Maps)
	}
	if len(a.Queues["q1"]) != 3 || string(a.Queues["q1"][2]) != "e3" || len(a.Queues["q2"]) != 1 {
		t.Errorf("merged queues wrong: %v", a.Queues)
	}
	if a.Counters["sold"] != 42 || a.Counters["only-a"] != 3 || a.Counters["only-b"] != 7 {
		t.Errorf("merged counters wrong (partials must sum): %v", a.Counters)
	}
}
