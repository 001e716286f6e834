package stmlib

import (
	"testing"

	"pnstm/internal/alloctest"
)

// TestHashKeyGolden pins hashKey for one key of each arm. Bucket placement
// is derived from it, and snapshot images and replayed logs were written
// under these values.
func TestHashKeyGolden(t *testing.T) {
	type point struct{ X, Y int }
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("hashKey(%s) = %#x, want %#x", name, got, want)
		}
	}
	check(`"key-000042"`, hashKey("key-000042"), 0xff353abc6fb85f56)
	check(`""`, hashKey(""), 0xf52a15e9a9b5e89b)
	check("42", hashKey(42), 0xa759ea27d4727622)
	check("uint8(7)", hashKey(uint8(7)), 0x12ae30237b17df14)
	check("true", hashKey(true), 0x5692161d100b05e5)
	check("2.5", hashKey(2.5), 0x975835de1c9756ce)
	check("point{1,2}", hashKey(point{1, 2}), 0xfd47c1270b55213b) // the printed-form arm
}

// TestHashKeyDoesNotAllocate: the scalar and string arms hash without
// boxing their argument on the heap.
func TestHashKeyDoesNotAllocate(t *testing.T) {
	s, n := "key-000042", 42
	var sink uint64
	if got := alloctest.Exact(100, func() { sink += hashKey(s) + hashKey(n) }); got > alloctest.Slack {
		t.Errorf("hashKey of a string and an int: %.3f allocs, ceiling 0 and %.2f slack", got, alloctest.Slack)
	}
	_ = sink
}
