//go:build !pnstmcheck

package server

// poisonReleased is a no-op outside the pnstmcheck build (see
// poison_check.go), so release's poisoning compiles out.
func poisonReleased([]byte, []TxOp) {}
