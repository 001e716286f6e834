package core

import (
	"reflect"
	"testing"
)

// TestStatsSubAddCoverEveryField fills every Stats field with a distinct
// value and checks Sub and Add field by field: a counter left out of either
// silently reads as zero in a per-batch delta or a multi-shard roll-up.
func TestStatsSubAddCoverEveryField(t *testing.T) {
	var s, prev Stats
	sv, pv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < sv.NumField(); i++ {
		// s dominates prev field by field, so Sub never wraps.
		sv.Field(i).SetUint(uint64(1000 + 10*i))
		pv.Field(i).SetUint(uint64(1 + i))
	}
	sub := reflect.ValueOf(s.Sub(prev))
	adds := []reflect.Value{reflect.ValueOf(s.Add(prev)), reflect.ValueOf(prev.Add(s))}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		a, b := sv.Field(i).Uint(), pv.Field(i).Uint()
		wantSub, wantAdd := a-b, a+b
		if name == "PeakParents" { // a high-water mark: later value, maximum
			wantSub, wantAdd = a, max(a, b)
		}
		if got := sub.Field(i).Uint(); got != wantSub {
			t.Errorf("Sub: %s = %d, want %d", name, got, wantSub)
		}
		for _, add := range adds {
			if got := add.Field(i).Uint(); got != wantAdd {
				t.Errorf("Add: %s = %d, want %d", name, got, wantAdd)
			}
		}
	}
}
