//go:build pnstmcheck

package server

import "strings"

// What a released pending's bytes read as under the pnstmcheck tag.
var (
	poisonBytes  = []byte(strings.Repeat("\xa5", 16))
	poisonString = string(poisonBytes)
)

// poisonReleased overwrites a released pending's frame buffer with 0xA5
// and fills each op slot with 0xA5 scalars and a name, key and value of
// 0xA5 bytes the pending does not own: run with -tags pnstmcheck, the
// tests read poison wherever a borrowed byte outlived its pending.
//
// A frame over maxRetainedFrame is not poisoned: ReadFrame gives it an
// allocation of its own that no later frame reuses, so a byte borrowed
// from it and kept past release still reads correctly under the tag. Such
// a byte cannot read stale data; it only keeps the whole frame alive.
func poisonReleased(frame []byte, ops []TxOp) {
	for i := range frame {
		frame[i] = 0xA5
	}
	for i := range ops {
		ops[i] = TxOp{Op: 0xA5, Name: poisonString, Key: poisonString, Value: poisonBytes, Delta: -0x5A5A5A5A5A5A5A5B}
	}
}
